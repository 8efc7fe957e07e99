"""A directory read observes every update its client completed before it (§4.4).

ROADMAP item 1's schedule, seed 17: four clients over three directories,
each client working only on names of its own, so each client's names
follow a sequential model and every `readdir` must list exactly the names
of its own that the client created and has not deleted since.

SwitchFS breaks it: client 0 creates `/d1/c0_2` (ok at 150.15 µs), and
its `readdir /d1` (176.32 -> 186.27 µs) does not list the file.  An
aggregation round on `/d1`'s fingerprint pulled server-0 before that
create's change-log append, and the round's REMOVE cleared the stale bit
the create's INSERT had set, so the read found the directory clean.  The
same schedule with the parent updated synchronously passes.
"""

import random

import pytest

from repro.core import FSConfig, FSError, SwitchFSCluster
from repro.sim import AllOf

SEED = 17
CLIENTS = 4
DIRS = 3
OPS_PER_CLIENT = 25


def _client_ops(fs, i, sim, violations):
    rng = random.Random(SEED * 10 + i)
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


def _violations(**config):
    cluster = SwitchFSCluster(
        FSConfig(num_servers=4, cores_per_server=2, seed=2, **config)
    )
    fs0 = cluster.client(0)
    for d in range(DIRS):
        cluster.run_op(fs0.mkdir(f"/d{d}"))
    sim = cluster.sim
    violations = []
    procs = [
        sim.spawn(_client_ops(cluster.client(i), i, sim, violations), name=f"client{i}")
        for i in range(CLIENTS)
    ]

    def join():
        yield AllOf(sim, procs)

    sim.run_process(sim.spawn(join(), name="join"), until=sim.now + 1e6)
    return violations


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: a change-log append after its server answered a round's "
    "pull loses its stale bit to that round's REMOVE",
)
def test_switchfs_reads_observe_completed_creates():
    assert _violations() == []


def test_synchronous_updates_read_your_writes():
    assert _violations(async_updates=False, recast=False) == []
