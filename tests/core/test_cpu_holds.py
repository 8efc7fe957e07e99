"""A handler holds a core once for each run of CPU between two points
where it can block (DESIGN.md §5): counted as ``Hold`` constructions."""

import pytest

from repro.core import ROOT_ID, ChangeLogEntry, ChangeOp, FSConfig, SwitchFSCluster
from repro.sim import Hold


@pytest.fixture
def holds(monkeypatch):
    """The number of ``Hold`` built so far, as a one-element list."""
    count = [0]
    init = Hold.__init__

    def counting(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(Hold, "__init__", counting)
    return count


def make(**overrides):
    return SwitchFSCluster(FSConfig(**dict(num_servers=4, cores_per_server=4, seed=3, **overrides)))


def test_create_into_a_warm_directory_takes_two_holds(holds):
    """The path check before the locks, then one hold for the read, the
    WAL append, the put and the change-log append."""
    cluster = make()
    fs = cluster.client(0)
    cluster.run_op(fs.mkdir("/d"))
    cluster.run_op(fs.create("/d/warm"))
    before = holds[0]
    cluster.run_op(fs.create("/d/f"))
    assert holds[0] - before == 2


def test_switch_cache_miss_stat_takes_one_hold(holds):
    """The inode read lock first, then the path check and the read."""
    cluster = make(switch_cache=True)
    fs = cluster.client(0)
    cluster.run_op(fs.mkdir("/d"))
    cluster.run_op(fs.create("/d/f"))
    before = holds[0]
    cluster.run_op(fs.stat("/d/f"))  # a miss: the reply fills the line
    assert holds[0] - before == 1
    before = holds[0]
    cluster.run_op(fs.stat("/d/f"))  # a hit: no server is asked
    assert holds[0] == before


@pytest.mark.parametrize("entries", [1, 3, 4, 10])
def test_recast_apply_takes_one_hold_per_core_at_most(holds, entries):
    """n entries on c cores: min(n, c) holds for the entry-list work, and
    one for the inode transaction after it."""
    cluster = make()
    owner = cluster.membership.current.root_owner()
    server = next(s for s in cluster.servers if s.addr == owner)
    log = [ChangeLogEntry(float(i), ChangeOp.CREATE, f"n{i}") for i in range(entries)]
    before = holds[0]
    cluster.run_op(server._apply_recast(ROOT_ID, log))
    assert holds[0] - before == min(entries, server.cores.capacity) + 1
