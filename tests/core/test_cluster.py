"""Cluster assembly and introspection."""

import pytest

from repro.core import FSConfig, SwitchFSCluster
from repro.switchfab import ProgrammableSwitch


class TestAssembly:
    def test_servers_and_switch_wired(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=3, cores_per_server=2))
        assert len(cluster.servers) == 3
        assert isinstance(cluster.control.switch, ProgrammableSwitch)
        # Exactly one server holds the root inode.
        roots = sum(
            1 for s in cluster.servers if ("D", 0, "/") in s.kv
        )
        assert roots == 1

    def test_server_backend_has_no_switch(self):
        cluster = SwitchFSCluster(
            FSConfig(num_servers=2, cores_per_server=2, stale_backend="server")
        )
        assert cluster.control is None
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
    def test_settle_raises_when_entries_stuck(self):
        cluster = SwitchFSCluster(
            FSConfig(num_servers=2, cores_per_server=2, proactive_enabled=False)
        )
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        # Proactive aggregation disabled: entries never drain.
        with pytest.raises(RuntimeError, match="did not settle"):
            cluster.settle(quiet_us=100.0)

    def test_settle_succeeds_with_proactive(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=2, cores_per_server=2))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(5):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.settle()
        assert cluster.total_pending_entries() == 0
