"""Discrete-event simulation substrate.

Everything in the reproduction executes on this kernel: a deterministic
event loop with generator-based processes (:mod:`repro.sim.kernel`),
contention primitives for cores and locks (:mod:`repro.sim.resources`),
measurement helpers (:mod:`repro.sim.stats`), and seeded randomness
(:mod:`repro.sim.rand`).
"""

from .kernel import (
    AllOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .rand import AliasTable, make_rng, zipf_cdf
from .resources import Hold, Resource, RWLock
from .stats import Counter, LatencyRecorder, PhaseStats, percentile

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "SimulationError",
    "Resource",
    "Hold",
    "RWLock",
    "LatencyRecorder",
    "PhaseStats",
    "Counter",
    "percentile",
    "make_rng",
    "zipf_cdf",
    "AliasTable",
]
