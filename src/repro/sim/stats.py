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
from typing import DefaultDict, Dict, Iterable, List, Sequence

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

    def ops(self) -> Iterable[str]:
        return self._samples.keys()


class PhaseStats:
    """Per-phase service-time accumulators for one server.

    The server runtime records how long requests spend in each execution
    phase — ``queue`` (waiting for a CPU core), ``cpu`` (holding a core),
    ``lock`` (waiting for an inode/change-log lock), and ``net`` (waiting
    on a nested RPC) — so latency breakdowns (Fig 2(b), Fig 15) read
    measured hook data instead of reconstructing shares from the
    performance-model constants.  Durations are virtual microseconds.
    """

    PHASES = ("queue", "cpu", "lock", "net")

    # queue/cpu are recorded on every CPU charge (~4-6 times per op), so
    # they live in plain public float/int attributes that the hold ending
    # the charge bumps itself (sim/resources.py, Hold); the dict holds
    # only the rarer phases (lock, net).  All read paths merge the two.

    def __init__(self):
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self.queue_total = 0.0
        self.queue_count = 0
        self.cpu_total = 0.0
        self.cpu_count = 0

    def add(self, phase: str, us: float) -> None:
        if us < 0:
            raise ValueError(f"negative phase duration: {phase}={us}")
        if phase == "queue":
            self.queue_total += us
            self.queue_count += 1
        elif phase == "cpu":
            self.cpu_total += us
            self.cpu_count += 1
        else:
            self._totals[phase] = self._totals.get(phase, 0.0) + us
            self._counts[phase] = self._counts.get(phase, 0) + 1

    def total(self, phase: str) -> float:
        if phase == "queue":
            return self.queue_total
        if phase == "cpu":
            return self.cpu_total
        return self._totals.get(phase, 0.0)

    def count(self, phase: str) -> int:
        if phase == "queue":
            return self.queue_count
        if phase == "cpu":
            return self.cpu_count
        return self._counts.get(phase, 0)

    def mean(self, phase: str) -> float:
        n = self.count(phase)
        return self.total(phase) / n if n else 0.0

    def phases(self) -> Iterable[str]:
        return self.as_dict().keys()

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        if self.queue_count:
            out["queue"] = self.queue_total
        if self.cpu_count:
            out["cpu"] = self.cpu_total
        out.update(self._totals)
        return out

    def merge(self, other: "PhaseStats") -> None:
        self.queue_total += other.queue_total
        self.queue_count += other.queue_count
        self.cpu_total += other.cpu_total
        self.cpu_count += other.cpu_count
        for phase, total in other._totals.items():
            self._totals[phase] = self._totals.get(phase, 0.0) + total
            self._counts[phase] = self._counts.get(phase, 0) + other._counts[phase]

    def clear(self) -> None:
        self._totals.clear()
        self._counts.clear()
        self.queue_total = 0.0
        self.queue_count = 0
        self.cpu_total = 0.0
        self.cpu_count = 0


class Counter:
    """Named event counters (cache hits, fallbacks, aggregations, ...)."""

    def __init__(self):
        self._counts: Dict[str, int] = {}

    def inc(self, name: str) -> None:
        self._counts[name] = self._counts.get(name, 0) + 1

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)
