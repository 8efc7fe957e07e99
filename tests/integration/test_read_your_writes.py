"""A directory read observes every update its client completed before it (§4.4).

ROADMAP item 1's schedule, run through the differential harness: four
clients over three directories, each working only on names of its own,
with the op lists drawn as they were when the schedule was found.

Seed 17 pins the lost stale bit: an aggregation round on `/d1`'s
fingerprint pulls server-0 while its `/d1` change-log is empty.  Unless
that pull write-locks the group's change-log lock anyway, client 0's
create of `/d1/c0_2` (ok at 150.15 µs) appends after the drain, the
round's REMOVE clears the stale bit the create's INSERT set, and its
`readdir /d1` (176.32 -> 186.27 µs) misses the file.
"""

import random

import pytest

from ..properties.test_differential import READS, Schedule, check


class ItemOneSchedule(Schedule):
    def client_ops(self, i):
        rng = random.Random(self.seed * 10 + i)
        ops = []
        for _ in range(self.ops):
            d, k = rng.randrange(self.dirs), rng.randrange(6)
            op = rng.choice(["create", "create", "delete", "statdir", "readdir", "stat"])
            ops.append((op, f"/d{d}" if op in READS else f"/d{d}/c{i}_{k}", rng.uniform(0, 3)))
        return ops


def _schedule(seed):
    return ItemOneSchedule((0.05, 0.05, 0.1), clients=4, mix=(), dirs=3, ops=25, seed=seed)


def test_switchfs_reads_observe_completed_creates():
    check("default", _schedule(17))


def test_synchronous_updates_read_your_writes():
    check("sync", _schedule(17))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1(c): the pull watchdog gives up custody of drained "
    "entries whose ack was lost",
)
def test_reads_observe_completed_creates_when_a_pull_ack_is_lost():
    """Seed 1322 with 5 % loss, 5 % duplication and 10 % reordering, recast
    off.  The pull watchdog fires on every server, and client 2's
    ``readdir /d1`` misses ``/d1/c2_1``, a create it had completed
    (DESIGN §8: a watchdog release gives up custody of what the pull
    drained)."""
    check("recast-off+faults", _schedule(1322))
