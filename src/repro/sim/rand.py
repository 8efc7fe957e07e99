"""Seeded randomness helpers: deterministic RNG streams and skewed sampling.

Every stochastic component (workload generators, network fault injection)
draws from an explicitly seeded :class:`random.Random` so experiments are
reproducible run-to-run.  :func:`zipf_cdf` is the repo's one Zipf table:
a normalised cumulative ``array('d')`` built at C speed, sampled by
inverse CDF (``bisect_left(cdf, rng.random())``, O(log n), exactly one
uniform per draw); the client-population engine shares one per
``(n, theta)`` across its aggregates (DESIGN.md §16).
:class:`AliasTable` is the O(1) sampler for small fixed weight vectors
(the op mix): Vose's alias method, also one uniform per sample.
"""

from __future__ import annotations

import random
from array import array
from itertools import accumulate, repeat
from math import fsum
from operator import truediv
from typing import List, Sequence

__all__ = ["make_rng", "zipf_cdf", "AliasTable"]


def make_rng(seed: int, stream: str = "") -> random.Random:
    """A deterministic RNG, decorrelated per *stream* name.

    Components derive their own stream ("workload", "net-loss", ...) from a
    single experiment seed without sharing state.
    """
    return random.Random(f"{seed}:{stream}")


def zipf_cdf(n: int, theta: float) -> array:
    """Normalised cumulative Zipf weights, rank 0 hottest: w[i] = 1/(i+1)^theta.

    ``cdf[i]`` is the probability of a rank <= i and the last cell is
    exactly 1.0, so ``bisect_left(cdf, u)`` maps a uniform ``u`` in
    [0, 1) to a rank.  The weights are generated twice (once for the
    total, once for the running sum) rather than kept: the only n-cell
    buffer is the result, 8 bytes a rank.  The total is ``math.fsum``,
    correctly rounded on every Python version (builtin ``sum`` of floats
    is compensated from 3.12 on only, which made the table's bytes
    depend on the interpreter).
    """
    if n < 1:
        raise ValueError(f"zipf universe must be >= 1, got {n}")
    if theta < 0:
        raise ValueError(f"zipf theta must be >= 0, got {theta}")

    def weights():
        return map(truediv, repeat(1.0), map(pow, range(1, n + 1), repeat(theta)))

    total = fsum(weights())
    cdf = array("d", accumulate(map(truediv, weights(), repeat(total))))
    cdf[-1] = 1.0  # guard against float drift
    return cdf


class AliasTable:
    """O(1) weighted sampling over a fixed weight vector (Vose's method).

    Construction is O(n); :meth:`sample` is O(1) and consumes exactly one
    uniform draw: the integer part of ``u * n`` picks a column, the
    fractional part decides between the column's own index and its alias.
    Immutable once built, so one instance may be shared.
    """

    __slots__ = ("n", "_prob", "_alias")

    def __init__(self, weights: Sequence[float]):
        n = len(weights)
        if n < 1:
            raise ValueError("alias table needs at least one weight")
        total = fsum(weights)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self.n = n
        prob = array("d", [0.0]) * n
        alias = array("L", [0]) * n
        scaled = array("d", [0.0]) * n
        small: List[int] = []
        large: List[int] = []
        for i, w in enumerate(weights):
            if w < 0:
                raise ValueError(f"negative weight at index {i}: {w}")
            p = w * n / total
            scaled[i] = p
            (small if p < 1.0 else large).append(i)
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            (small if scaled[l] < 1.0 else large).append(l)
        # Leftovers are 1.0 up to float error; they never take the alias arm.
        for i in small + large:
            prob[i] = 1.0
            alias[i] = i
        self._prob = prob
        self._alias = alias

    def sample(self, rng: random.Random) -> int:
        """Draw one index, consuming exactly one uniform from *rng*."""
        u = rng.random() * self.n
        i = int(u)
        if i >= self.n:  # u == 1.0 cannot happen, but guard float edges
            i = self.n - 1
        return i if (u - i) < self._prob[i] else self._alias[i]
