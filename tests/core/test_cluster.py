"""Cluster assembly and introspection."""

import pytest

from repro.core import FSConfig, SwitchFSCluster, fingerprint_of
from repro.core.schema import ROOT_ID, dir_meta_key
from repro.switchfab import ProgrammableSwitch


class TestAssembly:
    def test_servers_and_switch_wired(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=3, cores_per_server=2))
        assert len(cluster.servers) == 3
        assert isinstance(cluster.switch, ProgrammableSwitch)
        # Exactly one server holds the root inode.
        roots = sum(
            1 for s in cluster.servers if ("D", 0, "/") in s.kv
        )
        assert roots == 1

    def test_server_backend_has_no_switch(self):
        cluster = SwitchFSCluster(
            FSConfig(num_servers=2, cores_per_server=2, stale_backend="server")
        )
        assert cluster.switch is None
        assert cluster.switch_stats() is None
        assert cluster.staleset_server is not None
        with pytest.raises(RuntimeError):
            cluster.fail_switch()

    def test_clients_cached_by_index(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=2, cores_per_server=2))
        assert cluster.client(0) is cluster.client(0)
        assert cluster.client(0) is not cluster.client(1)

    def test_server_by_addr(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=2, cores_per_server=2))
        assert cluster.server_by_addr("server-1").addr == "server-1"
        with pytest.raises(KeyError):
            cluster.server_by_addr("server-9")


class TestSettle:
    def test_settle_returns_with_entries_parked_for_a_read(self):
        """With proactive pushes off an entry waits for a directory read by
        design: settle() tells it from a stuck one and returns."""
        cluster = SwitchFSCluster(FSConfig(num_servers=4, seed=5, proactive_enabled=False))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(40):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.run_op(fs.statdir("/d"))
        cluster.settle()
        assert cluster.total_pending_entries() > 0  # the mkdir's, parked on "/"
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 40

    @staticmethod
    def _settled_cluster():
        cluster = SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2, seed=2))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/x"))
        cluster.settle()
        return cluster, cluster.servers[1]

    def test_a_parked_inode_lock_is_named(self):
        """Quiescence is more than drained logs: a lock still held at rest
        is the mark of a wedged op, and settle names where it is."""
        cluster, server = self._settled_cluster()
        key = dir_meta_key(ROOT_ID, "d")
        assert server._inode_lock(key).acquire_write() is None
        with pytest.raises(RuntimeError) as err:
            cluster.settle()
        assert f"{server.addr} _inode_locks[{key!r}]: held by w, 0 waiting" in str(err.value)

    def test_a_parked_group_block_is_named(self):
        cluster, server = self._settled_cluster()
        fp = fingerprint_of(ROOT_ID, "d")
        server._group_blocks[fp] = cluster.sim.event()
        with pytest.raises(RuntimeError) as err:
            cluster.settle()
        assert str(err.value) == f"cluster did not settle: {server.addr} _group_blocks[{fp!r}]"

    def test_settle_succeeds_with_proactive(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=2, cores_per_server=2))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(5):
            cluster.run_op(fs.create(f"/d/f{i}"))
        assert any("pending entries" in item for s in cluster.servers for item in s.unsettled())
        cluster.settle()
        assert cluster.total_pending_entries() == 0
