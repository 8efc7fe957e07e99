"""A directory read observes every update its client completed before it (§4.4).

ROADMAP item 1's schedule, seed 17: four clients over three directories,
each client working only on names of its own, so each client's names
follow a sequential model and every `readdir` must list exactly the names
of its own that the client created and has not deleted since.

Seed 17 pins the lost stale bit: an aggregation round on `/d1`'s
fingerprint pulls server-0 while its `/d1` change-log is empty.  Unless
that pull write-locks the group's change-log lock anyway, client 0's
create of `/d1/c0_2` (ok at 150.15 µs) appends after the drain, the
round's REMOVE clears the stale bit the create's INSERT set, and its
`readdir /d1` (176.32 -> 186.27 µs) misses the file.  The differential
over many schedules is `tests/properties/test_async_sync_differential.py`.
"""

import random

import pytest

from repro.core import FSConfig, FSError, SwitchFSCluster
from repro.net import FaultModel
from repro.sim import AllOf

SEED = 17
CLIENTS = 4
DIRS = 3
OPS_PER_CLIENT = 25


def _client_ops(fs, i, sim, violations, seed):
    rng = random.Random(seed * 10 + i)
    mine = {d: set() for d in range(DIRS)}  # names this client has in each dir
    for _ in range(OPS_PER_CLIENT):
        d = rng.randrange(DIRS)
        name = f"c{i}_{rng.randrange(6)}"
        op = rng.choice(["create", "create", "delete", "statdir", "readdir", "stat"])
        issued = sim.now
        try:
            if op in ("create", "delete", "stat"):
                yield from getattr(fs, op)(f"/d{d}/{name}")
                if op == "create":
                    mine[d].add(name)
                elif op == "delete":
                    mine[d].discard(name)
            elif op == "statdir":
                yield from fs.statdir(f"/d{d}")
            else:
                listing = yield from fs.readdir(f"/d{d}")
                listed = {n for n in listing["entries"] if n.startswith(f"c{i}_")}
                if listed != mine[d]:
                    violations.append(
                        f"client {i} readdir /d{d} ({issued:.2f} -> {sim.now:.2f} us): "
                        f"listed {sorted(listed)}, completed {sorted(mine[d])}"
                    )
        except FSError:
            pass  # EEXIST / ENOENT: the client's model already agrees
        yield sim.timeout(rng.uniform(0, 3))


def _violations(seed=SEED, faults=False, **config):
    cluster = SwitchFSCluster(
        FSConfig(num_servers=4, cores_per_server=2, seed=2, **config),
        faults=FaultModel(random.Random(seed), 0.05, 0.05, 0.1) if faults else None,
    )
    fs0 = cluster.client(0)
    for d in range(DIRS):
        cluster.run_op(fs0.mkdir(f"/d{d}"))
    sim = cluster.sim
    violations = []
    procs = [
        sim.spawn(_client_ops(cluster.client(i), i, sim, violations, seed), name=f"client{i}")
        for i in range(CLIENTS)
    ]

    def join():
        yield AllOf(sim, procs)

    sim.run_process(sim.spawn(join(), name="join"), until=sim.now + 1e6)
    return violations


def test_switchfs_reads_observe_completed_creates():
    assert _violations() == []


def test_synchronous_updates_read_your_writes():
    assert _violations(async_updates=False, recast=False) == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1(c): the pull watchdog gives up custody of drained "
    "entries whose ack was lost",
)
def test_reads_observe_completed_creates_when_a_pull_ack_is_lost():
    """The same schedule at seed 1322, with 5 % loss, 5 % duplication and
    10 % reordering, recast off.  The pull watchdog fires on every server,
    and client 2's ``readdir /d1`` misses ``/d1/c2_1``, a create it had
    completed (DESIGN §8: a watchdog release gives up custody of what the
    pull drained)."""
    assert _violations(seed=1322, faults=True, recast=False) == []
