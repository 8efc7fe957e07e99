"""The baseline DFSs must provide the same POSIX metadata semantics —
they differ from SwitchFS only in partition strategy and protocol."""

import pytest

from repro.baselines import (
    CephLikeCluster,
    CFSKVCluster,
    GroupedPartition,
    IndexFSCluster,
    InfiniFSCluster,
    SubtreePartition,
)
from repro.core import FSConfig, FSError
from repro.core.membership import bootstrap_view

ALL_SYSTEMS = [InfiniFSCluster, CFSKVCluster, IndexFSCluster, CephLikeCluster]


def make(cluster_cls):
    return cluster_cls(FSConfig(num_servers=4, cores_per_server=2, seed=2))


@pytest.mark.parametrize("cluster_cls", ALL_SYSTEMS)
class TestBaselineSemantics:
    def test_create_stat_delete(self, cluster_cls):
        cluster = make(cluster_cls)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        assert cluster.run_op(fs.stat("/d/f"))["size"] == 0
        cluster.run_op(fs.delete("/d/f"))
        with pytest.raises(FSError):
            cluster.run_op(fs.stat("/d/f"))

    def test_readdir_and_counts(self, cluster_cls):
        cluster = make(cluster_cls)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(5):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.run_op(fs.delete("/d/f2"))
        listing = cluster.run_op(fs.readdir("/d"))
        assert sorted(listing["entries"]) == ["f0", "f1", "f3", "f4"]
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 4

    def test_eexist_enoent(self, cluster_cls):
        cluster = make(cluster_cls)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.create("/d/f"))
        assert err.value.code == "EEXIST"
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.delete("/d/ghost"))
        assert err.value.code == "ENOENT"

    def test_rmdir_semantics(self, cluster_cls):
        cluster = make(cluster_cls)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.rmdir("/d"))
        assert err.value.code == "ENOTEMPTY"
        cluster.run_op(fs.delete("/d/f"))
        cluster.run_op(fs.rmdir("/d"))
        with pytest.raises(FSError):
            cluster.run_op(fs.statdir("/d"))

    def test_nested_directories(self, cluster_cls):
        cluster = make(cluster_cls)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/a"))
        cluster.run_op(fs.mkdir("/a/b"))
        cluster.run_op(fs.create("/a/b/f"))
        assert cluster.run_op(fs.stat("/a/b/f"))["mtime"] > 0

    def test_file_rename(self, cluster_cls):
        cluster = make(cluster_cls)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/s"))
        cluster.run_op(fs.mkdir("/t"))
        cluster.run_op(fs.create("/s/f"))
        cluster.run_op(fs.rename("/s/f", "/t/g"))
        assert cluster.run_op(fs.stat("/t/g"))["size"] == 0
        with pytest.raises(FSError):
            cluster.run_op(fs.stat("/s/f"))
        assert cluster.run_op(fs.statdir("/s"))["entry_count"] == 0
        assert cluster.run_op(fs.statdir("/t"))["entry_count"] == 1


class TestPartitionPlacement:
    def test_grouped_colocates_children(self):
        """InfiniFS grouping: a directory's files all map to one server."""
        part = GroupedPartition(8)
        owners = {part.file_owner(12345, f"f{i}", "/d") for i in range(50)}
        assert len(owners) == 1

    def test_per_file_spreads_children(self):
        """CFS-KV separating: its placement is the epoch-0 view."""
        part = bootstrap_view(FSConfig(num_servers=8))
        owners = {part.file_owner(12345, f"f{i}", "/d") for i in range(200)}
        assert len(owners) == 8

    def test_subtree_keeps_whole_subtree_together(self):
        part = SubtreePartition(8)
        a = {part.file_owner(1, f"f{i}", "/top1/deep/er") for i in range(20)}
        assert len(a) == 1
        assert part.dir_owner(5, "x", "/top1/x") == part.file_owner(9, "y", "/top1/z")

    def test_grouped_create_is_single_server(self):
        """The defining InfiniFS property: file create touches one server."""
        cluster = make(InfiniFSCluster)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        before = {s.addr: s.counters.get("cross_server_updates") for s in cluster.servers}
        for i in range(10):
            cluster.run_op(fs.create(f"/d/f{i}"))
        after = {s.addr: s.counters.get("cross_server_updates") for s in cluster.servers}
        assert before == after  # no cross-server parent updates

    def test_per_file_create_is_cross_server(self):
        cluster = make(CFSKVCluster)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(10):
            cluster.run_op(fs.create(f"/d/f{i}"))
        crossings = sum(s.counters.get("cross_server_updates") for s in cluster.servers)
        assert crossings > 0


class TestStackModels:
    def test_ceph_is_much_slower(self):
        def create_latency(cluster_cls):
            cluster = make(cluster_cls)
            fs = cluster.client(0)
            cluster.run_op(fs.mkdir("/d"))
            t0 = cluster.sim.now
            cluster.run_op(fs.create("/d/f"))
            return cluster.sim.now - t0

        assert create_latency(CephLikeCluster) > 5 * create_latency(InfiniFSCluster)

    def test_indexfs_slower_than_infinifs(self):
        def create_latency(cluster_cls):
            cluster = make(cluster_cls)
            fs = cluster.client(0)
            cluster.run_op(fs.mkdir("/d"))
            t0 = cluster.sim.now
            cluster.run_op(fs.create("/d/f"))
            return cluster.sim.now - t0

        assert create_latency(IndexFSCluster) > create_latency(InfiniFSCluster)
