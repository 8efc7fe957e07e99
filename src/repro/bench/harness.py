"""Benchmark harness: one measurement window, two arrival policies.

:class:`MeasurementWindow` is how every run is measured.  The closed loop
here mirrors the paper's methodology (§6.1/§6.2): workers keep a fixed
number of requests in flight against the metadata cluster; peak
throughput is found by increasing the in-flight level until throughput
stops improving; latency is reported from single-client (or low
in-flight) runs.  The open loop, :func:`repro.workloads.run_fanin`,
issues Poisson arrivals into the same window.

The harness runs on virtual time: reported throughput is operations per
*simulated* second, latency in simulated microseconds.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from ..core.cluster import Cluster
from ..sim import AllOf, LatencyRecorder, PhaseStats, Process, Simulator
from ..workloads.generator import OpStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..workloads.clientpop import PopulationClient

__all__ = [
    "RunResult",
    "MeasurementWindow",
    "run_collector_off",
    "run_stream",
    "find_peak_throughput",
]


@dataclass
class RunResult:
    """Measurements from one run's window."""

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
    """The one measurement of a run, whichever arrival policy drives it.

    The window opens when built: server phase accounting restarts, the
    switch dentry-cache counters are snapshotted and the clients get fresh
    switch-served-reply buckets, so bootstrap and warm-up traffic (a
    separate driver call) stay out of it.  Every completed op reports to
    :meth:`done`; :meth:`run` joins the driver's processes, closes the
    window and builds the run's :class:`RunResult`.
    """

    def __init__(self, cluster: Cluster, clients: int, total_ops: int):
        if total_ops < 1:
            raise ValueError(f"total_ops must be >= 1, got {total_ops}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.clients = [cluster.client(c) for c in range(clients)]
        self.latency = LatencyRecorder()
        # Appended to directly: elapsed is non-negative by construction
        # (virtual time is monotone), so record()'s check adds nothing.
        self.all = self.latency.bucket("all")
        for server in cluster.servers:
            server.phases.clear()
        self.cache_base = self._switch_cache_counts() or {}
        # LatencyRecorder has no clear(), so swap in fresh recorders.
        for fs in self.clients:
            fs.switch_latency = LatencyRecorder()
        self.start = self.end = self.sim.now

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

    def done(self, t0: float) -> float:
        """Count one op that started at *t0* and just completed; returns
        its latency."""
        now = self.sim.now
        self.end = now
        elapsed = now - t0
        self.all.append(elapsed)
        return elapsed

    def run(
        self,
        procs: List[Process],
        name: str,
        inflight: int = 0,
        populations: Sequence["PopulationClient"] = (),
    ) -> RunResult:
        """Run *procs* to completion and close the window.

        *inflight* is the closed loop's fixed level; an open-loop run
        passes its *populations* instead and reports their peak.
        """
        wall_seconds = run_collector_off(self.sim, procs, name)
        if self.end <= self.start:
            raise RuntimeError("measurement window is empty; increase total_ops")
        phases = PhaseStats()
        for server in self.cluster.servers:
            phases.merge(server.phases)
        switch_cache: Dict[str, int] = {}
        counts = self._switch_cache_counts()
        if counts is not None:
            switch_cache = {k: v - self.cache_base.get(k, 0) for k, v in counts.items()}
            for fs in self.clients:
                self.latency.merge(fs.switch_latency)
        if populations:
            inflight = max(pop.peak_inflight for pop in populations)
        return RunResult(
            ops_completed=len(self.all),
            sim_elapsed_us=self.end - self.start,
            wall_seconds=wall_seconds,
            latency=self.latency,
            inflight=inflight,
            phases=phases,
            switch_cache=switch_cache,
            populations={pop.name: pop.summary() for pop in populations},
        )


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


def run_stream(
    cluster: Cluster,
    stream: OpStream,
    total_ops: int,
    inflight: int = 32,
    op_label: Optional[str] = None,
) -> RunResult:
    """Run *total_ops* operations from *stream* with a fixed in-flight level.

    *inflight* persistent workers share client 0.  The measurement window
    is the whole call: warm up with a separate call before it.
    """
    window = MeasurementWindow(cluster, 1, total_ops)
    sim = cluster.sim
    fs = cluster.client(0)
    take = stream.take
    done = window.done
    latency = window.latency
    label = op_label or "all"
    labelled = latency.bucket(label) if label != "all" else None
    issued = 0

    def worker():
        nonlocal issued
        while issued < total_ops:
            issued += 1
            thunk = take()
            t0 = sim.now
            yield from thunk(fs)
            elapsed = done(t0)
            if labelled is not None:
                labelled.append(elapsed)
            # Per-op breakdown when the stream labels its thunks.
            op_name = thunk.op_name
            if op_name and op_name != label:
                latency.record(elapsed, op_name)

    procs = [sim.spawn(worker(), name=f"bench-worker-{w}") for w in range(inflight)]
    return window.run(procs, "bench-join", inflight)


def find_peak_throughput(
    make_run: Callable[[int], RunResult],
    inflight_levels: Sequence[int] = (16, 32, 64, 128),
) -> RunResult:
    """Increase the in-flight level until throughput stops improving.

    ``make_run(inflight)`` must build a **fresh** cluster and run the
    workload.  Returns the best run.  Stops at the first level that
    improves on the best by less than 2 % (keeping it if it is still
    higher), so the later levels never run.
    """
    best: Optional[RunResult] = None
    for result in map(make_run, inflight_levels):
        if best is not None and result.throughput_ops < best.throughput_ops * 1.02:
            if result.throughput_ops > best.throughput_ops:
                best = result
            break
        if best is None or result.throughput_ops > best.throughput_ops:
            best = result
    assert best is not None
    return best
