"""Seeded randomness helpers: deterministic RNG streams and skewed sampling.

Every stochastic component (workload generators, network fault injection)
draws from an explicitly seeded :class:`random.Random` so experiments are
reproducible run-to-run.  ``ZipfGenerator`` provides the skewed access
pattern used for hotspot experiments; its inverse-CDF table makes sampling
O(log n) without scipy.  :class:`AliasTable` is the O(1) counterpart used
on hot paths: Vose's alias method turns any fixed weight vector into a
constant-time sampler that consumes exactly **one** uniform draw per
sample regardless of the table size — which is why the client-population
engine's arrival sequence is bit-identical across population sizes
(DESIGN.md §16).
"""

from __future__ import annotations

import bisect
import random
from array import array
from math import fsum
from typing import List, Sequence, TypeVar

__all__ = ["make_rng", "ZipfGenerator", "weighted_choice", "AliasTable", "zipf_weights"]

T = TypeVar("T")


def make_rng(seed: int, stream: str = "") -> random.Random:
    """A deterministic RNG, decorrelated per *stream* name.

    Components derive their own stream ("workload", "net-loss", ...) from a
    single experiment seed without sharing state.
    """
    return random.Random(f"{seed}:{stream}")


class ZipfGenerator:
    """Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^theta.

    theta=0 degenerates to uniform; theta around 0.99 is the classic
    YCSB-style hot-spot skew.
    """

    __slots__ = ("n", "theta", "_rng", "_cdf")

    def __init__(self, n: int, theta: float, rng: random.Random):
        if n < 1:
            raise ValueError(f"zipf universe must be >= 1, got {n}")
        if theta < 0:
            raise ValueError(f"zipf theta must be >= 0, got {theta}")
        self.n = n
        self.theta = theta
        self._rng = rng
        weights = [1.0 / ((i + 1) ** theta) for i in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self) -> int:
        """Draw one rank; rank 0 is the hottest."""
        u = self._rng.random()
        return bisect.bisect_left(self._cdf, u)


def zipf_weights(n: int, theta: float) -> array:
    """Unnormalised Zipf weights, rank 0 hottest: w[i] = 1/(i+1)^theta.

    Compact ``array('d')`` so a million-user weight vector costs 8 MB,
    not a list of boxed floats.
    """
    if n < 1:
        raise ValueError(f"zipf universe must be >= 1, got {n}")
    if theta < 0:
        raise ValueError(f"zipf theta must be >= 0, got {theta}")
    return array("d", (1.0 / ((i + 1) ** theta) for i in range(n)))


class AliasTable:
    """O(1) weighted sampling over a fixed weight vector (Vose's method).

    Construction is O(n); :meth:`sample` is O(1) and consumes exactly one
    uniform draw: the integer part of ``u * n`` picks a column, the
    fractional part decides between the column's own index and its alias.
    Because the draw count per sample is independent of ``n``, two
    samplers seeded identically walk their RNG streams in lockstep even
    when their universes differ — the property the client-population
    engine's cross-population determinism tests pin down.

    Immutable once built, so one instance may be shared (and cached
    weakly); ``weights`` is the vector it was built from.
    """

    __slots__ = ("n", "weights", "_prob", "_alias", "__weakref__")

    def __init__(self, weights: Sequence[float]):
        n = len(weights)
        if n < 1:
            raise ValueError("alias table needs at least one weight")
        total = fsum(weights)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self.n = n
        self.weights = weights
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


def weighted_choice(items: Sequence[T], weights: Sequence[float], rng: random.Random) -> T:
    """Pick one item with probability proportional to its weight.

    O(len(items)) per call; hot paths that sample the same weight vector
    repeatedly should precompute an :class:`AliasTable` instead.
    """
    if len(items) != len(weights):
        raise ValueError("items and weights length mismatch")
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    u = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if u < acc:
            return item
    return items[-1]
