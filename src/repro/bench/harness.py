"""Closed-loop benchmark harness.

Mirrors the paper's measurement methodology (§6.1/§6.2): clients keep a
fixed number of requests in flight against the metadata cluster; peak
throughput is found by increasing the in-flight level until throughput
stops improving; latency is reported from single-client (or low
in-flight) runs.

The harness runs on virtual time: reported throughput is operations per
*simulated* second, latency in simulated microseconds.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.client import LibFS
from ..core.cluster import Cluster
from ..sim import AllOf, LatencyRecorder, PhaseStats, Process, Simulator
from ..workloads.generator import OpStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .sweep import SweepPool

__all__ = [
    "RunResult",
    "MeasurementWindow",
    "run_collector_off",
    "run_stream",
    "find_peak_throughput",
]


@dataclass
class RunResult:
    """Measurements from one closed-loop run."""

    ops_completed: int
    sim_elapsed_us: float
    wall_seconds: float
    latency: LatencyRecorder
    inflight: int
    # Server-side phase breakdown (queue/cpu/lock/net wait), merged over
    # every server, covering exactly this run's window.
    phases: PhaseStats = field(default_factory=PhaseStats)
    # In-switch dentry-cache counters (hits/misses/fills/evictions) for
    # this run's window; empty when the cache is not provisioned.  The
    # per-call latency split lives in the recorder's "switch_hit" /
    # "switch_miss" buckets.
    switch_cache: Dict[str, int] = field(default_factory=dict)
    # Per-population fan-in summaries (users, offered vs achieved load,
    # percentiles, epoch catch-ups) from the open-loop client-population
    # engine; empty for closed-loop runs.  The raw per-population samples
    # live in the recorder's "pop<i>" buckets.
    populations: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def phase_mean_us(self, phase: str) -> float:
        """Per-op mean time spent in *phase* across the whole cluster."""
        if self.ops_completed == 0:
            return 0.0
        return self.phases.total(phase) / self.ops_completed

    @property
    def switch_cache_hit_rate(self) -> float:
        probes = self.switch_cache.get("hits", 0) + self.switch_cache.get("misses", 0)
        return self.switch_cache.get("hits", 0) / probes if probes else 0.0

    @property
    def throughput_ops(self) -> float:
        return self.ops_completed / (self.sim_elapsed_us / 1e6)

    @property
    def throughput_kops(self) -> float:
        return self.throughput_ops / 1e3

    @property
    def mean_latency_us(self) -> float:
        return self.latency.mean()

    def p99_latency_us(self) -> float:
        return self.latency.p(99)


class MeasurementWindow:
    """What both drivers measure over their window only: the servers' phase
    accounting, the switch dentry-cache counters and the clients'
    switch-served-reply buckets."""

    def __init__(self, cluster: Cluster, num_clients: int):
        self.cluster = cluster
        self.num_clients = num_clients
        self.cache_base: Dict[str, int] = {}

    def _switch_cache_counts(self) -> Optional[Dict[str, int]]:
        st = self.cluster.switch_stats()
        if st is None or st.cache_capacity == 0:
            return None  # no dentry cache provisioned
        return {
            "hits": st.cache_hits,
            "misses": st.cache_misses,
            "fills": st.cache_fills,
            "evictions": st.cache_evictions,
        }

    def _clients(self) -> List[LibFS]:
        return [self.cluster.client(w) for w in range(self.num_clients)]

    def open(self) -> None:
        # Phase accounting covers the measurement window only: drop
        # whatever bootstrap / warmup traffic accumulated before it.
        for server in self.cluster.servers:
            server.phases.clear()
        counts = self._switch_cache_counts()
        if counts is not None:
            self.cache_base = counts
        # Same windowing for the clients' switch-served-reply buckets:
        # LatencyRecorder has no clear(), so swap in fresh recorders.
        for fs in self._clients():
            fs.switch_latency = LatencyRecorder()

    def close(
        self, latency: LatencyRecorder, start: Optional[float], end: float
    ) -> Tuple[PhaseStats, Dict[str, int]]:
        """Merged server phases and the window's cache-counter deltas; the
        clients' ``switch_hit`` / ``switch_miss`` buckets join *latency*."""
        if start is None or end <= start:
            raise RuntimeError("measurement window is empty; increase total_ops")
        phases = PhaseStats()
        for server in self.cluster.servers:
            phases.merge(server.phases)
        switch_cache: Dict[str, int] = {}
        counts = self._switch_cache_counts()
        if counts is not None:
            switch_cache = {
                k: v - self.cache_base.get(k, 0) for k, v in counts.items()
            }
            for fs in self._clients():
                latency.merge(fs.switch_latency)
        return phases, switch_cache


def run_collector_off(sim: Simulator, procs: List[Process], name: str) -> float:
    """Run until every process in *procs* has finished; returns the wall
    seconds that took.

    Collection pauses inside the measurement window would be charged to
    the workload, so pay one collection up front and re-enable after the
    window closes (EXPERIMENTS.md).  Leak-free only while the op path
    makes no reference cycle (DESIGN.md §9), which
    tests/integration/test_refcount_clean.py pins: gc.collect() == 0.
    """

    def join():
        yield AllOf(sim, procs)

    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.collect()
        gc.disable()
    wall0 = time.time()
    try:
        sim.run_process(sim.spawn(join(), name=name))
    finally:
        wall1 = time.time()
        if gc_was_enabled:
            gc.enable()
    return wall1 - wall0


class _StreamState:
    """Progress counters shared by every run_stream worker coroutine."""

    __slots__ = ("issued", "completed", "window_start", "window_end")

    def __init__(self):
        self.issued = 0
        self.completed = 0
        self.window_start: Optional[float] = None
        self.window_end: Optional[float] = None


def run_stream(
    cluster: Cluster,
    stream: OpStream,
    total_ops: int,
    inflight: int = 32,
    warmup_ops: int = 0,
    num_clients: int = 1,
    op_label: Optional[str] = None,
) -> RunResult:
    """Run *total_ops* operations from *stream* with a fixed in-flight level.

    Workers spread round-robin over *num_clients* LibFS instances.  The
    measurement window opens after *warmup_ops* completions and closes
    when the last measured op finishes.
    """
    if total_ops <= warmup_ops:
        raise ValueError("total_ops must exceed warmup_ops")
    sim = cluster.sim
    latency = LatencyRecorder()
    label = op_label or "all"
    state = _StreamState()
    window = MeasurementWindow(cluster, num_clients)
    # The workers append straight into the recorder's sample lists:
    # elapsed is non-negative by construction (virtual time is monotone),
    # so the record() validation adds nothing on this innermost loop.
    label_samples = latency.bucket(label)
    all_samples = latency.bucket("all") if label != "all" else label_samples

    def open_window():
        state.window_start = sim.now
        window.open()

    def worker(client_idx: int):
        fs = cluster.client(client_idx)
        take = stream.take
        while state.issued < total_ops:
            state.issued += 1
            thunk = take()
            t0 = sim.now
            yield from thunk(fs)
            completed = state.completed + 1
            state.completed = completed
            if completed == warmup_ops:
                open_window()
            elif completed > warmup_ops:
                elapsed = sim.now - t0
                label_samples.append(elapsed)
                if all_samples is not label_samples:
                    all_samples.append(elapsed)
                # Per-op breakdown when the stream labels its thunks.
                op_name = getattr(thunk, "op_name", None)
                if op_name and op_name != label:
                    latency.record(elapsed, op_name)
                state.window_end = sim.now

    if warmup_ops == 0:
        open_window()
    procs = [
        sim.spawn(worker(w % num_clients), name=f"bench-worker-{w}")
        for w in range(inflight)
    ]
    wall_seconds = run_collector_off(sim, procs, "bench-join")
    window_start = state.window_start
    window_end = state.window_end or sim.now
    phases, switch_cache = window.close(latency, window_start, window_end)
    return RunResult(
        ops_completed=total_ops - warmup_ops,
        sim_elapsed_us=window_end - window_start,
        wall_seconds=wall_seconds,
        latency=latency,
        inflight=inflight,
        phases=phases,
        switch_cache=switch_cache,
    )


def find_peak_throughput(
    make_run: Callable[[int], RunResult],
    inflight_levels: Sequence[int] = (16, 32, 64, 128),
    tolerance: float = 1.02,
    pool: Optional["SweepPool"] = None,
) -> RunResult:
    """Increase the in-flight level until throughput stops improving.

    ``make_run(inflight)`` must build a **fresh** cluster and run the
    workload.  Returns the best run.  Stops early when the next level
    improves by less than ``tolerance``×.

    With *pool* (a :class:`repro.bench.sweep.SweepPool`), every level is
    evaluated concurrently — ``make_run`` must then be picklable (a
    module-level function) — and the same knee scan runs over the ordered
    results, so the chosen peak is identical to the serial search (the
    levels past the knee are computed in parallel instead of skipped).
    """
    # Serial: a lazy map, so breaking at the knee skips the later levels.
    results = (pool.map if pool is not None else map)(make_run, inflight_levels)
    best: Optional[RunResult] = None
    for result in results:
        if best is not None and result.throughput_ops < best.throughput_ops * tolerance:
            if result.throughput_ops > best.throughput_ops:
                best = result
            break
        if best is None or result.throughput_ops > best.throughput_ops:
            best = result
    assert best is not None
    return best
