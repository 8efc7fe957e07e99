"""The four ledger workloads: what each one builds and how its window is driven.

Only package-level public names of ``repro`` are imported here, so a
rename or removal in the program surfaces as an ImportError or an
AttributeError in the benchmark instead of a silently skipped arm.
Every random choice derives from the ``--seed`` the driver passes in; the
program itself only ever sees the generated thunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.bench import make_cluster, run_stream, scaled_config
from repro.workloads import (
    DATA_CENTER_SERVICES_MIX,
    FixedOpStream,
    MixStream,
    OpMix,
    Population,
    bootstrap,
    multiple_directories,
    run_fanin,
)

NUM_SERVERS = 8
INFLIGHT = 64          # closed loop: one client keeps this many ops in flight
WARMUP_SHARE = 10      # a tenth of the window's op count runs first, unmeasured

# Open loop: a million Zipf(0.99) users over four aggregate processes at a
# fixed offered rate, about 60 % of the closed-loop stat peak, where p99
# has just lifted off the median.
FANIN_USERS = 1_000_000
FANIN_AGGREGATES = 4
FANIN_OFFERED_OPS = 4_000_000.0
FANIN_FILES = 512

# Fig 13/14 shape: write bursts with directory reads mixed in, so every
# statdir/readdir finds scattered change-logs and has to aggregate.
BURST_DIRREAD_MIX = OpMix(
    name="burst-dirread",
    weights=(("create", 0.80), ("delete", 0.08), ("statdir", 0.08), ("readdir", 0.04)),
)


@dataclass
class Scenario:
    """A built workload, ready to drive."""

    cluster: object
    population: Population
    clients: List[int]                      # LibFS indices the drive uses
    make_stream: Callable[[int], object]    # stream for aggregate/client index a
    drive: Callable[[int, bool], object]    # (total_ops, warmup) -> RunResult
    offered_ops: float = 0.0                # open loop only


def _closed_loop(cluster, population, make_stream, wrap) -> Scenario:
    # One stream feeds the warm-up and the window, so fresh names never repeat.
    stream = wrap(make_stream(0))

    def drive(total_ops: int, warmup: bool):
        return run_stream(cluster, stream, total_ops, inflight=INFLIGHT)

    return Scenario(cluster, population, [0], make_stream, drive)


def hot_create(seed: int, wrap) -> Scenario:
    cluster = make_cluster("SwitchFS", scaled_config(num_servers=NUM_SERVERS, seed=seed))
    # The directory's name decides which server owns it and where its files
    # hash to, which is the only input a single-directory create storm has.
    population = bootstrap(
        cluster, Population(dirs=[f"shared{seed}"], files_per_dir=1000), warm_clients=[0]
    )
    return _closed_loop(
        cluster,
        population,
        lambda a: FixedOpStream("create", population, seed=seed, dir_choice="single"),
        wrap,
    )


class _MixOverBootstrapFiles(MixStream):
    """MixStream whose deletes and reads only ever pick bootstrapped files.

    Works around a defect in the program (README, "Known defects"): recast
    applies an aggregated batch in arrival order, so a create and a later
    delete of the same name that meet in one batch leave the entry behind
    (seed 103 of the stock stream: /d60/mx2).  Forgetting each fresh name
    keeps MixStream from deleting what this run created.  Delete this
    class when recast orders same-name entries by timestamp.
    """

    def _thunk_for(self, op: str):
        thunk = super()._thunk_for(op)
        self._created.clear()
        return thunk


def _mix(seed: int, wrap, mix: OpMix, num_dirs: int) -> Scenario:
    cluster = make_cluster("SwitchFS", scaled_config(num_servers=NUM_SERVERS, seed=seed))
    population = bootstrap(cluster, multiple_directories(num_dirs, 100), warm_clients=[0])
    return _closed_loop(
        cluster, population, lambda a: _MixOverBootstrapFiles(mix, population, seed=seed), wrap
    )


def burst_dirread(seed: int, wrap) -> Scenario:
    return _mix(seed, wrap, BURST_DIRREAD_MIX, 64)


def dcs_mix(seed: int, wrap) -> Scenario:
    return _mix(seed, wrap, DATA_CENTER_SERVICES_MIX, 256)


def fanin_1m_stat(seed: int, wrap) -> Scenario:
    # Dentry cache on at half the file population (2 stages x 2^7 lines for
    # 512 files), so hit, miss, FILL and eviction paths all run.
    cluster = make_cluster(
        "SwitchFS",
        scaled_config(
            num_servers=NUM_SERVERS,
            seed=seed,
            switch_cache=True,
            switch_cache_stages=2,
            switch_cache_index_bits=7,
        ),
    )
    clients = list(range(FANIN_AGGREGATES))
    population = bootstrap(
        cluster,
        Population(dirs=[f"shared{seed}"], files_per_dir=FANIN_FILES),
        warm_clients=clients,
    )

    def make_stream(a: int):
        return FixedOpStream("stat", population, seed=seed * 131 + a, dir_choice="single")

    def drive(total_ops: int, warmup: bool):
        # The warm-up only has to fill the switch and client caches, which
        # does not depend on the user count: it runs with one user per
        # aggregate and leaves the O(users) table build to the window call.
        return run_fanin(
            cluster,
            lambda a: wrap(make_stream(a)),
            users=FANIN_AGGREGATES if warmup else FANIN_USERS,
            offered_load_ops=FANIN_OFFERED_OPS,
            total_ops=total_ops,
            aggregates=FANIN_AGGREGATES,
            seed=seed + (7919 if warmup else 0),
        )

    return Scenario(cluster, population, clients, make_stream, drive, FANIN_OFFERED_OPS)


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, Callable], Scenario]
    ops: int    # operations in the measured window, sized to ~2.5 s of host time


WORKLOADS = {
    "hot_create": Workload(hot_create, 24_000),
    "burst_dirread": Workload(burst_dirread, 14_000),
    "dcs_mix": Workload(dcs_mix, 12_000),
    "fanin_1m_stat": Workload(fanin_1m_stat, 40_000),
}
