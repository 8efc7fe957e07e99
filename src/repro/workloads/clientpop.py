"""Weighted client-population engine: million-user fan-in at O(load) cost.

The closed loop (:func:`repro.bench.harness.run_stream`) charges one
worker coroutine per simulated client, so its wall cost would grow with
the *user count* instead of the *offered load* — a million-user scaling
curve is flatly infeasible that way.  This module aggregates
``K`` logical users into one :class:`PopulationClient` sim process (the
λFS play: multiplex thousands of tenants over a small serving pool):

* **Sparse user table** — a user costs memory only once it arrives.
  :class:`UserTable` keeps ops completed and the last membership epoch
  observed in dicts keyed by uid, so a run's per-user state grows with
  the users that issue an op (bounded by the op count), not with ``K``.
  The one O(K) structure is the Zipf activity table: a normalised
  cumulative ``array('d')`` (:func:`~repro.sim.zipf_cdf`, 8 bytes a
  user, built at C speed) that every aggregate of the same size shares.
* **One next-arrival timer per aggregate** — arrivals form a Poisson
  process at the *summed* per-user rate (superposition), so the engine
  re-arms a single exponential timer per aggregate instead of K user
  timers (PR 7's dead-timer lesson).  The arriving user is drawn from
  the Zipf table by inverse CDF (``bisect_left(cdf, rng.random())``);
  since one arrival consumes exactly two uniforms (gap + user)
  regardless of K, the arrival *time* sequence is bit-identical across
  population sizes at a fixed offered load.  The arrival's op starts
  inline, in the timer's own kernel entry (``Simulator.adopt``), so an
  op costs the kernel no process boot and no completion entry.
* **Per-user cache-epoch multiplexing** — all K users share one warm
  ``LibFS`` (so switch/dentry-cache and stale-set behaviour stays
  faithful to a real fan-in where a serving process fronts many users),
  while the table tracks the membership epoch each user last observed;
  a user completing its first op after an epoch bump counts as one
  ``epoch_catchups`` without any per-user cache flush.

:func:`run_fanin` is the open-loop counterpart of ``run_stream``: it
drives one or more aggregates to a total op count inside the same
:class:`~repro.bench.harness.MeasurementWindow` and returns the same
:class:`~repro.bench.harness.RunResult`, with per-population latency
buckets ("pop0", "pop1", ...) and a ``populations`` summary of per-
population percentiles and achieved load.
"""

from __future__ import annotations

import random
import weakref
from bisect import bisect_left
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, DefaultDict, Dict, Generator, List, Optional

from ..sim import make_rng, percentile, zipf_cdf
from .generator import OpStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bench.harness import MeasurementWindow, RunResult
    from ..core.client import LibFS

__all__ = ["UserTable", "PopulationClient", "run_fanin"]


# (n, theta) -> zipf_cdf(n, theta): a pure function of its key and never
# written once built, so the aggregates of a run share it; held weakly, it
# dies with its last UserTable.
_activity: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


class UserTable:
    """Per-user state for one aggregate, kept only for users who arrive.

    Rank 0 is the most active user.  ``cdf`` is the Zipf activity table
    of ``(n, theta)``: immutable and shared by every live table of that
    key.  ``ops_done`` (uid -> ops completed) and ``epoch_seen`` (uid ->
    the membership epoch it last observed, for users whose epoch moved
    since their :class:`PopulationClient` was built) belong to this
    table alone and hold only users who completed an op.
    """

    __slots__ = ("n", "cdf", "ops_done", "epoch_seen")

    def __init__(self, n: int, theta: float = 0.99):
        if n < 1:
            raise ValueError(f"population must have >= 1 user, got {n}")
        self.n = n
        cdf = _activity.get((n, theta))
        if cdf is None:
            cdf = _activity[n, theta] = zipf_cdf(n, theta)
        self.cdf = cdf
        self.ops_done: DefaultDict[int, int] = defaultdict(int)
        self.epoch_seen: Dict[int, int] = {}

    def sample(self, rng: random.Random) -> int:
        """Draw the arriving user, consuming exactly one uniform from *rng*."""
        return bisect_left(self.cdf, rng.random())

    def active_users(self) -> int:
        """Users that completed at least one op."""
        return len(self.ops_done)

    def top_user_share(self) -> float:
        """Fraction of completed ops done by the most active user."""
        done = self.ops_done.values()
        return max(done) / sum(done) if done else 0.0


class PopulationClient:
    """One aggregate: K logical users multiplexed over one shared LibFS.

    Open-loop: :meth:`drive` issues arrivals on the single re-armed
    timer and runs each op inline (``Simulator.adopt``: no boot entry,
    and no completion entry, as nothing waits on the op) without waiting
    for its completion, so the in-flight level is whatever the offered
    load and service times produce — exactly the fan-in regime the
    closed-loop harness cannot model.
    """

    __slots__ = (
        "name", "sim", "fs", "stream", "users", "rate_per_us", "rng",
        "issued", "completed", "inflight", "peak_inflight", "epoch_catchups",
        "samples", "done", "_base_epoch", "_target", "_drained",
    )

    def __init__(
        self,
        name: str,
        fs: "LibFS",
        stream: OpStream,
        users: UserTable,
        offered_load_ops: float,
        seed: int,
        window: "MeasurementWindow",
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
        # Per-population latency bucket beside the shared window's "all";
        # appended to directly (run_stream's hot-path idiom).
        self.samples = window.latency.bucket(name)
        self.done = window.done
        # The epoch every user absent from users.epoch_seen last observed.
        self._base_epoch = fs.view_epoch
        self._target: Optional[int] = None
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
        sample = self.users.sample
        take = self.stream.take
        adopt = sim.adopt
        rate = self.rate_per_us
        while self.issued < total_ops:
            yield sim.timeout(expovariate(rate))
            uid = sample(rng)
            self.issued += 1
            thunk = take()
            self.inflight += 1
            if self.inflight > self.peak_inflight:
                self.peak_inflight = self.inflight
            # Inline, no boot entry: _op turns every failure into
            # _drained.fail, so nothing need observe its handle.
            adopt(self._op(uid, thunk), name="")
        if self.completed >= total_ops:
            return
        self._target = total_ops
        yield self._drained

    def _op(self, uid: int, thunk) -> Generator:
        t0 = self.sim.now
        try:
            yield from thunk(self.fs)
        except Exception as exc:
            # Nothing waits on an op: hand the first failure to drive(),
            # whose wait on the drain raises it and fails the run, as a
            # failed op fails run_stream's.
            if not self._drained.triggered:
                self._drained.fail(exc)
            return
        self.samples.append(self.done(t0))
        users = self.users
        users.ops_done[uid] += 1
        epoch = self.fs.view_epoch
        # Epochs only move forward and a user absent from epoch_seen last
        # observed the base epoch: until the first bump every user is
        # current, and after it an absent user is not.
        if epoch != self._base_epoch and users.epoch_seen.get(uid) != epoch:
            # This user's first completion since the membership epoch
            # moved: its logical cache epoch rolls forward for free —
            # the shared LibFS already revalidated on behalf of everyone.
            users.epoch_seen[uid] = epoch
            self.epoch_catchups += 1
        self.inflight -= 1
        self.completed += 1
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
            out["p50_latency_us"] = round(percentile(xs, 50), 3)
            out["p99_latency_us"] = round(percentile(xs, 99), 3)
        return out


def run_fanin(
    cluster,
    make_stream: Callable[[int], OpStream],
    users: int,
    offered_load_ops: float,
    total_ops: int,
    aggregates: int = 1,
    seed: int = 42,
    extra_procs: Optional[List[Generator]] = None,
) -> "RunResult":
    """Open-loop run: *users* logical users over *aggregates* processes.

    Users split evenly over the aggregates and the offered load splits
    with them; ``make_stream(agg_index)`` builds each aggregate's op
    stream (seed it by index for decorrelated streams).  *extra_procs*
    generators (e.g. a mid-run ``scale_up`` controller) are spawned
    alongside and joined with the drivers.  The measurement window is the
    whole call, as for ``run_stream``.  Returns a
    :class:`~repro.bench.harness.RunResult` whose latency recorder has
    one bucket per population ("pop0", ...) and whose ``populations``
    dict carries the per-population percentiles and load accounting.
    """
    # Deferred: bench imports workloads.
    from ..bench.harness import MeasurementWindow

    if aggregates < 1:
        raise ValueError(f"need >= 1 aggregate, got {aggregates}")
    if users < aggregates:
        raise ValueError(f"need >= 1 user per aggregate ({users} users, "
                         f"{aggregates} aggregates)")
    window = MeasurementWindow(cluster, total_ops)
    pops: List[PopulationClient] = []
    base_users = users // aggregates
    base_ops = total_ops // aggregates
    for a in range(aggregates):
        k = base_users + (1 if a < users % aggregates else 0)
        pop = PopulationClient(
            f"pop{a}",
            cluster.client(a),
            make_stream(a),
            UserTable(k),
            offered_load_ops * (k / users),
            seed=seed + a,
            window=window,
        )
        pops.append(pop)

    sim = cluster.sim
    shares = [base_ops + (1 if a < total_ops % aggregates else 0)
              for a in range(aggregates)]
    procs = [
        sim.spawn(pop.drive(share), name=f"fanin-{pop.name}")
        for pop, share in zip(pops, shares)
    ]
    for extra in extra_procs or []:
        procs.append(sim.spawn(extra, name="fanin-extra"))
    return window.run(procs, "fanin-join", populations=pops)
