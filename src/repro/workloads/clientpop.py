"""Weighted client-population engine: million-user fan-in at O(load) cost.

The closed-loop harness (:mod:`repro.bench.harness`) charges one ``LibFS``
instance plus one worker coroutine per simulated client, so simulation
wall cost grows with the *user count* instead of the *offered load* — a
million-user scaling curve is flatly infeasible.  This module aggregates
``K`` logical users into one :class:`PopulationClient` sim process (the
λFS play: multiplex thousands of tenants over a small serving pool):

* **Array-of-struct user table** — per-user state lives in parallel
  ``array`` columns (:class:`UserTable`), not per-user objects: ops
  issued/completed, latency sums, and the last membership epoch each
  user observed.  A million users cost a few flat arrays, and the per-op
  record is a handful of array writes — no allocation on the op path.
* **One next-arrival timer per aggregate** — arrivals form a Poisson
  process at the *summed* per-user rate (superposition), so the engine
  re-arms a single exponential timer per aggregate instead of K user
  timers (PR 7's dead-timer lesson).  The arriving user is drawn from
  Zipf-skewed activity weights through an O(1)
  :class:`~repro.sim.AliasTable`; since one arrival consumes exactly two
  uniforms (gap + user) regardless of K, the arrival *time* sequence is
  bit-identical across population sizes at a fixed offered load.
* **Per-user cache-epoch multiplexing** — all K users share one warm
  ``LibFS`` (so switch/dentry-cache and stale-set behaviour stays
  faithful to a real fan-in where a serving process fronts many users),
  while the table tracks the membership epoch each user last observed;
  a user completing its first op after an epoch bump counts as one
  ``epoch_catchups`` without any per-user cache flush.

:func:`run_fanin` is the open-loop counterpart of ``run_stream``: it
drives one or more aggregates to a total op count and returns the same
:class:`~repro.bench.harness.RunResult`, with per-population latency
buckets ("pop0", "pop1", ...) and a ``populations`` summary of per-
population percentiles and achieved load.
"""

from __future__ import annotations

import weakref
from array import array
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional

from ..sim import AliasTable, LatencyRecorder, make_rng, zipf_weights
from .generator import OpStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bench.harness import RunResult
    from ..core.client import LibFS

__all__ = ["UserTable", "PopulationClient", "run_fanin"]


# (n, theta) -> AliasTable(zipf_weights(n, theta)): a pure function of its
# key and never written once built, so the aggregates of a run share it;
# held weakly, its three n-cell columns die with their last UserTable.
_activity: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


class UserTable:
    """Per-user state for one aggregate, as parallel array columns.

    Rank 0 is the most active user.  Columns are plain ``array`` objects:
    compact (8 bytes per cell), allocation-free to update, and cheap to
    compare byte-for-byte in determinism tests (``tobytes()``).

    ``weights`` and ``alias`` are immutable and shared by every live table
    of the same ``(n, theta)``; ``ops_done``, ``lat_sum`` and
    ``epoch_seen`` are written per op and belong to this table alone.
    """

    __slots__ = ("n", "theta", "weights", "alias", "ops_done", "lat_sum", "epoch_seen")

    def __init__(self, n: int, theta: float = 0.99):
        if n < 1:
            raise ValueError(f"population must have >= 1 user, got {n}")
        self.n = n
        self.theta = theta
        alias = _activity.get((n, theta))
        if alias is None:
            alias = _activity[n, theta] = AliasTable(zipf_weights(n, theta))
        self.alias = alias
        self.weights = alias.weights
        self.ops_done = array("Q", [0]) * n
        self.lat_sum = array("d", [0.0]) * n
        self.epoch_seen = array("Q", [0]) * n

    def active_users(self) -> int:
        """Users that completed at least one op."""
        return self.n - self.ops_done.count(0)

    def mean_latency_us(self, uid: int) -> float:
        count = self.ops_done[uid]
        return self.lat_sum[uid] / count if count else 0.0

    def top_user_share(self) -> float:
        """Fraction of completed ops done by the most active user."""
        total = sum(self.ops_done)
        return max(self.ops_done) / total if total else 0.0


class PopulationClient:
    """One aggregate: K logical users multiplexed over one shared LibFS.

    Open-loop: :meth:`drive` issues arrivals on the single re-armed
    timer and spawns each op without waiting for its completion, so the
    in-flight level is whatever the offered load and service times
    produce — exactly the fan-in regime the closed-loop harness cannot
    model.
    """

    __slots__ = (
        "name", "sim", "fs", "stream", "users", "rate_per_us", "rng",
        "issued", "completed", "inflight", "peak_inflight", "epoch_catchups",
        "samples", "all_samples", "warmup", "window", "arrival_log",
        "_target", "_open_hook", "_drained",
    )

    def __init__(
        self,
        name: str,
        fs: "LibFS",
        stream: OpStream,
        users: UserTable,
        offered_load_ops: float,
        seed: int,
        latency: LatencyRecorder,
        warmup: Optional[List[int]] = None,
        window: Optional[List[float]] = None,
        record_arrivals: bool = False,
    ):
        if offered_load_ops <= 0:
            raise ValueError(f"offered load must be > 0 ops/s, got {offered_load_ops}")
        self.name = name
        self.sim = fs.sim
        self.fs = fs
        self.stream = stream
        self.users = users
        self.rate_per_us = offered_load_ops / 1e6
        self.rng = make_rng(seed, f"clientpop-{name}")
        self.issued = 0
        self.completed = 0
        self.inflight = 0
        self.peak_inflight = 0
        self.epoch_catchups = 0
        # Per-population latency bucket plus the shared "all" bucket;
        # appended to directly (run_stream's hot-path idiom).
        self.samples = latency.bucket(name)
        self.all_samples = latency.bucket("all")
        # Shared across aggregates: warmup[0] counts down completions to
        # the window open; window is [start_us, end_us] maintained here.
        self.warmup = warmup if warmup is not None else [0]
        self.window = window if window is not None else [self.sim.now, self.sim.now]
        self.arrival_log: Optional[List[Any]] = [] if record_arrivals else None
        epoch = fs.view_epoch
        if epoch:
            users.epoch_seen[:] = array("Q", [epoch]) * users.n
        self._target: Optional[int] = None
        self._open_hook: Optional[Callable[[], None]] = None
        self._drained = self.sim.event()

    def drive(self, total_ops: int) -> Generator:
        """Issue *total_ops* Poisson arrivals, then wait for the drain.

        The single next-arrival timer is re-armed lazily: the next gap is
        drawn only when the previous arrival has fired, so the heap holds
        at most one timer per aggregate no matter how many users it
        carries.
        """
        sim = self.sim
        rng = self.rng
        expovariate = rng.expovariate
        sample = self.users.alias.sample
        take = self.stream.take
        spawn = sim.spawn
        rate = self.rate_per_us
        log = self.arrival_log
        while self.issued < total_ops:
            yield sim.timeout(expovariate(rate))
            uid = sample(rng)
            self.issued += 1
            if log is not None:
                log.append((sim.now, uid))
            thunk = take(uid)
            self.inflight += 1
            if self.inflight > self.peak_inflight:
                self.peak_inflight = self.inflight
            spawn(self._op(uid, thunk), name="")
        if self.completed >= total_ops:
            return
        self._target = total_ops
        yield self._drained

    def _op(self, uid: int, thunk) -> Generator:
        sim = self.sim
        t0 = sim.now
        yield from thunk(self.fs)
        elapsed = sim.now - t0
        users = self.users
        users.ops_done[uid] += 1
        users.lat_sum[uid] += elapsed
        epoch = self.fs.view_epoch
        if users.epoch_seen[uid] != epoch:
            # This user's first completion since the membership epoch
            # moved: its logical cache epoch rolls forward for free —
            # the shared LibFS already revalidated on behalf of everyone.
            users.epoch_seen[uid] = epoch
            self.epoch_catchups += 1
        self.inflight -= 1
        self.completed += 1
        warmup = self.warmup
        if warmup[0] > 0:
            warmup[0] -= 1
            if warmup[0] == 0:
                self.window[0] = sim.now
                if self._open_hook is not None:
                    self._open_hook()
        else:
            self.samples.append(elapsed)
            self.all_samples.append(elapsed)
            self.window[1] = sim.now
        if self._target is not None and self.completed >= self._target:
            self._drained.succeed()

    def summary(self) -> Dict[str, Any]:
        """Per-population stats for ``RunResult.populations``."""
        count = len(self.samples)
        out: Dict[str, Any] = {
            "users": self.users.n,
            "offered_load_ops": round(self.rate_per_us * 1e6, 3),
            "ops_completed": self.completed,
            "peak_inflight": self.peak_inflight,
            "epoch_catchups": self.epoch_catchups,
            "active_users": self.users.active_users(),
            "top_user_share": round(self.users.top_user_share(), 6),
        }
        if count:
            xs = sorted(self.samples)
            out["mean_latency_us"] = round(sum(xs) / count, 3)
            out["p50_latency_us"] = round(xs[count // 2], 3)
            out["p99_latency_us"] = round(xs[min(count - 1, (count * 99) // 100)], 3)
        return out


def run_fanin(
    cluster,
    make_stream: Callable[[int], OpStream],
    users: int,
    offered_load_ops: float,
    total_ops: int,
    aggregates: int = 1,
    theta: float = 0.99,
    seed: int = 42,
    warmup_ops: int = 0,
    record_arrivals: bool = False,
    extra_procs: Optional[List[Generator]] = None,
) -> "RunResult":
    """Open-loop run: *users* logical users over *aggregates* processes.

    Users split evenly over the aggregates and the offered load splits
    with them; ``make_stream(agg_index)`` builds each aggregate's op
    stream (seed it by index for decorrelated streams).  *extra_procs*
    generators (e.g. a mid-run ``scale_up`` controller) are spawned
    alongside and joined with the drivers.  Returns a
    :class:`~repro.bench.harness.RunResult` whose latency recorder has
    one bucket per population ("pop0", ...) and whose ``populations``
    dict carries the per-population percentiles and load accounting.
    """
    # Deferred: bench imports workloads.
    from ..bench.harness import MeasurementWindow, RunResult, run_collector_off

    if total_ops <= warmup_ops:
        raise ValueError("total_ops must exceed warmup_ops")
    if aggregates < 1:
        raise ValueError(f"need >= 1 aggregate, got {aggregates}")
    if users < aggregates:
        raise ValueError(f"need >= 1 user per aggregate ({users} users, "
                         f"{aggregates} aggregates)")
    sim = cluster.sim
    latency = LatencyRecorder()
    warmup = [warmup_ops]
    window = [sim.now, sim.now]
    pops: List[PopulationClient] = []
    base_users = users // aggregates
    base_ops = total_ops // aggregates
    for a in range(aggregates):
        k = base_users + (1 if a < users % aggregates else 0)
        pop = PopulationClient(
            f"pop{a}",
            cluster.client(a),
            make_stream(a),
            UserTable(k, theta),
            offered_load_ops * (k / users),
            seed=seed + a,
            latency=latency,
            warmup=warmup,
            window=window,
            record_arrivals=record_arrivals,
        )
        pops.append(pop)

    measured = MeasurementWindow(cluster, aggregates)
    if warmup_ops == 0:
        window[0] = sim.now
        measured.open()
    else:
        for pop in pops:
            pop._open_hook = measured.open

    shares = [base_ops + (1 if a < total_ops % aggregates else 0)
              for a in range(aggregates)]
    procs = [
        sim.spawn(pop.drive(share), name=f"fanin-{pop.name}")
        for pop, share in zip(pops, shares)
    ]
    for extra in extra_procs or []:
        procs.append(sim.spawn(extra, name="fanin-extra"))
    wall_seconds = run_collector_off(sim, procs, "fanin-join")
    if warmup_ops > 0 and warmup[0] > 0:
        raise RuntimeError("measurement window never opened; increase total_ops")
    window_start, window_end = window
    phases, switch_cache = measured.close(latency, window_start, window_end)
    return RunResult(
        ops_completed=total_ops - warmup_ops,
        sim_elapsed_us=window_end - window_start,
        wall_seconds=wall_seconds,
        latency=latency,
        inflight=max(pop.peak_inflight for pop in pops),
        phases=phases,
        switch_cache=switch_cache,
        populations={pop.name: pop.summary() for pop in pops},
    )
