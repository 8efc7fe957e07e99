"""Measurement utilities for simulated experiments.

The benchmark harness reports the same quantities the paper does:
throughput in operations per (virtual) second, and average / p99 latency
in microseconds.  These helpers keep raw samples so percentiles are exact
rather than approximated.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from functools import partial
from typing import DefaultDict, Dict, List, Sequence

__all__ = ["LatencyRecorder", "PhaseStats", "Counter", "percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact percentile by linear interpolation (numpy 'linear' method).

    *q* is in [0, 100].  Raises ``ValueError`` on an empty sample set so a
    silent 0.0 never masquerades as a measurement.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q out of range: {q}")
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    rank = (q / 100.0) * (len(xs) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return xs[lo]
    frac = rank - lo
    return xs[lo] + frac * (xs[hi] - xs[lo])


class LatencyRecorder:
    """Collects per-operation latency samples, optionally keyed by op name.

    Each op's samples are an unboxed ``array('d')``: 8 B a sample instead
    of a float object and its list slot (DESIGN.md §11).  They hold the
    same doubles a list would, so sums, sorts and percentiles read the
    same values.
    """

    def __init__(self):
        self._samples: DefaultDict[str, array] = defaultdict(partial(array, "d"))

    def record(self, latency_us: float, op: str = "all") -> None:
        if latency_us < 0:
            raise ValueError(f"negative latency: {latency_us}")
        self._samples[op].append(latency_us)

    def samples(self, op: str = "all") -> List[float]:
        return list(self._samples.get(op, ()))

    def bucket(self, op: str = "all") -> array:
        """The live (mutable) sample array for *op*, created on first use.

        Hot-path accessor: a harness inner loop appends to the returned
        array directly instead of paying a :meth:`record` call per sample.
        Callers own the non-negativity guarantee record() would enforce.
        """
        return self._samples[op]

    def count(self, op: str = "all") -> int:
        return len(self._samples.get(op, ()))

    def mean(self, op: str = "all") -> float:
        xs = self._samples.get(op)
        if not xs:
            raise ValueError(f"no latency samples for op {op!r}")
        return sum(xs) / len(xs)

    def p(self, q: float, op: str = "all") -> float:
        xs = self._samples.get(op)
        if not xs:
            raise ValueError(f"no latency samples for op {op!r}")
        return percentile(xs, q)


class PhaseStats:
    """Per-phase service-time totals for one server.

    The server runtime records how long requests spend in each execution
    phase — ``queue`` (waiting for a CPU core), ``cpu`` (holding a core),
    ``lock`` (waiting for an inode/change-log lock), and ``net`` (waiting
    on a nested RPC) — so latency breakdowns (Fig 2(b), Fig 15) read
    measured hook data instead of reconstructing shares from the
    performance-model constants.  Durations are virtual microseconds.

    Each phase is a plain float attribute that its recorder adds to in
    place: the hold ending a CPU charge (``queue``, ``cpu``;
    sim/resources.py, Hold) and the server runtime (``lock``, ``net``).
    """

    PHASES = ("queue", "cpu", "lock", "net")

    __slots__ = PHASES

    def __init__(self):
        self.clear()

    def total(self, phase: str) -> float:
        return getattr(self, phase)

    def merge(self, other: "PhaseStats") -> None:
        self.queue += other.queue
        self.cpu += other.cpu
        self.lock += other.lock
        self.net += other.net

    def clear(self) -> None:
        self.queue = self.cpu = self.lock = self.net = 0.0


class Counter:
    """Named event counters (cache hits, fallbacks, aggregations, ...)."""

    def __init__(self):
        self._counts: Dict[str, int] = {}

    def inc(self, name: str) -> None:
        self._counts[name] = self._counts.get(name, 0) + 1

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)
