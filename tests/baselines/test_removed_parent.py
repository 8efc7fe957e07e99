"""A synchronous scheme writes the child before it updates the parent.
When the parent turns out to be gone the client gets ENOENT — and the
child inode must not stay behind in the KV store."""

from dataclasses import replace

import pytest

from repro.bench import SYSTEMS
from repro.core import FSConfig, FSError, SwitchFSCluster
from repro.core.schema import ROOT_ID


def switchfs_sync(config):
    """SwitchFS with synchronous parent updates (Fig 15's Baseline)."""
    return SwitchFSCluster(replace(config, async_updates=False, recast=False))


# The baselines' SYSTEMS rows, with test ids that keep the names of the
# per-system cluster classes those rows replaced.
BASELINES = [
    pytest.param(SYSTEMS[name], id=old) for name, old in (
        ("InfiniFS", "InfiniFSCluster"), ("CFS-KV", "CFSKVCluster"),
        ("IndexFS", "IndexFSCluster"), ("Ceph", "CephLikeCluster"),
    )
]


def removed_parent(cluster_cls):
    """Client 0 has ``/d`` cached; client 1 removed it."""
    cluster = cluster_cls(FSConfig(num_servers=4, cores_per_server=2, seed=2))
    fs = cluster.client(0)
    cluster.run_op(fs.mkdir("/d"))
    cluster.run_op(fs.create("/d/f"))  # resolves and caches /d
    cluster.run_op(fs.delete("/d/f"))
    dir_id = cluster.run_op(fs.statdir("/d"))["id"]
    cluster.run_op(cluster.client(1).rmdir("/d"))
    return cluster, fs, dir_id


def keys_under(cluster, dir_id):
    return [k for s in cluster.servers for k, _ in s.kv.scan_prefix(()) if k[1] == dir_id]


@pytest.mark.parametrize(
    "cluster_cls",
    [*BASELINES, switchfs_sync],
)
@pytest.mark.parametrize("op", ["create", "mkdir"])
def test_add_under_a_removed_parent_leaves_no_orphan(cluster_cls, op):
    cluster, fs, dir_id = removed_parent(cluster_cls)
    with pytest.raises(FSError) as err:
        cluster.run_op(getattr(fs, op)("/d/child"))
    assert err.value.code == "ENOENT"
    assert keys_under(cluster, dir_id) == []
    assert all(
        key[1] != dir_id for s in cluster.servers for key in s._dir_index.values()
    )


def race(cluster_cls, offset_us):
    """``create /d/f`` starts; ``rmdir /d`` starts *offset_us* later.  The
    file is picked to live on another server than the directory, so the
    create reaches ``/d`` through the two-phase parent update."""
    cluster = cluster_cls(FSConfig(num_servers=4, cores_per_server=2, seed=2))
    creator, remover = cluster.client(0), cluster.client(1)
    cluster.run_op(creator.mkdir("/d"))
    for fs in (creator, remover):
        cluster.run_op(fs.statdir("/d"))  # both have /d cached
    dir_id = cluster.run_op(creator.statdir("/d"))["id"]
    where = cluster.placement
    name = next(
        n
        for n in map("f{}".format, range(16))
        if where.file_owner(dir_id, n, "/d") != where.dir_owner(ROOT_ID, "d", "/d")
    )
    outcome = {}

    def attempt(name, gen, delay):
        yield cluster.sim.timeout(delay)
        try:
            yield from gen
            outcome[name] = "ok"
        except FSError as exc:
            outcome[name] = exc.code

    cluster.sim.spawn(attempt("create", creator.create("/d/" + name), 0.0))
    cluster.sim.spawn(attempt("rmdir", remover.rmdir("/d"), offset_us))
    cluster.run()
    return cluster, dir_id, outcome


def test_create_racing_rmdir_is_refused_cleanly_and_strands_no_lock():
    """A prepare that queues behind rmdir's lock is granted it after the
    directory is gone: it must answer ENOENT and hold nothing."""
    sweep_create_against_rmdir(SYSTEMS["CFS-KV"])


def test_switchfs_sync_create_racing_rmdir_is_refused_cleanly():
    sweep_create_against_rmdir(switchfs_sync)


def sweep_create_against_rmdir(cluster_cls):
    outcomes = set()
    for offset_us in range(0, 16):
        cluster, dir_id, outcome = race(cluster_cls, float(offset_us))
        outcomes.add((outcome["create"], outcome["rmdir"]))
        if outcome["create"] == "ok":
            assert outcome["rmdir"] == "ENOTEMPTY"
            assert cluster.run_op(cluster.client(2).statdir("/d"))["entry_count"] == 1
        else:
            assert (outcome["create"], outcome["rmdir"]) == ("ENOENT", "ok")
            assert keys_under(cluster, dir_id) == []
            # The same (pid, name) again, on the same server: a lock left
            # behind by the refused prepare would block this forever.
            cluster.run_op(cluster.client(2).mkdir("/d"), until=cluster.sim.now + 10_000)
            assert cluster.run_op(cluster.client(2).statdir("/d"))["entry_count"] == 0
    assert outcomes == {("ok", "ENOTEMPTY"), ("ENOENT", "ok")}  # the sweep crosses the window
