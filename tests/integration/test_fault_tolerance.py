"""Fault tolerance (§4.4): lossy networks, crashes, and switch failure."""

import pytest

from repro.core import ROOT_ID, FSConfig, FSError, SwitchFSCluster, fingerprint_of
from repro.net import FaultModel
from repro.sim import make_rng
from repro.workloads import bootstrap, multiple_directories


def lossy_cluster(loss=0.05, dup=0.02, reorder=0.05, seed=13, **cfg):
    defaults = dict(num_servers=4, cores_per_server=2, seed=seed)
    defaults.update(cfg)
    faults = FaultModel(
        make_rng(seed, "net"),
        loss_prob=loss,
        dup_prob=dup,
        reorder_prob=reorder,
        reorder_jitter_us=2.0,
    )
    return SwitchFSCluster(FSConfig(**defaults), faults=faults)


class TestUnreliableNetwork:
    def test_ops_complete_under_loss_dup_reorder(self):
        cluster = lossy_cluster()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(30):
            cluster.run_op(fs.create(f"/d/f{i}"))
        listing = cluster.run_op(fs.readdir("/d"))
        assert sorted(listing["entries"]) == sorted(f"f{i}" for i in range(30))

    def test_no_duplicate_execution_under_duplication(self):
        """Heavy duplication must not double-apply any update."""
        cluster = lossy_cluster(loss=0.0, dup=0.5, reorder=0.3)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(20):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.run_op(fs.delete("/d/f0"))
        info = cluster.run_op(fs.statdir("/d"))
        assert info["entry_count"] == 19

    def test_visibility_survives_lost_acks(self):
        """Even when REMOVE/ack notifications are lost, reads stay correct
        (a stale fingerprint only causes spurious aggregations)."""
        cluster = lossy_cluster(loss=0.15, seed=99)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(15):
            cluster.run_op(fs.create(f"/d/f{i}"))
            if i % 5 == 4:
                info = cluster.run_op(fs.statdir("/d"))
                assert info["entry_count"] == i + 1

    def test_retransmit_counters_nonzero_under_loss(self):
        cluster = lossy_cluster(loss=0.25, seed=5)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(10):
            cluster.run_op(fs.create(f"/d/f{i}"))
        assert fs.node.retransmits > 0


class TestServerCrashRecovery:
    def test_acked_state_survives_crash(self):
        cluster = SwitchFSCluster(
            FSConfig(num_servers=4, cores_per_server=2, proactive_enabled=False)
        )
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(12):
            cluster.run_op(fs.create(f"/d/f{i}"))
        # Crash every server, recover all, then verify the namespace.
        for idx in range(4):
            cluster.crash_server(idx)
        for idx in range(4):
            cluster.recover_server(idx)
        listing = cluster.run_op(fs.readdir("/d"))
        assert sorted(listing["entries"]) == sorted(f"f{i}" for i in range(12))

    def test_changelog_entries_rebuilt_from_wal(self):
        cluster = SwitchFSCluster(
            FSConfig(num_servers=4, cores_per_server=2, proactive_enabled=False)
        )
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(6):
            cluster.run_op(fs.create(f"/d/f{i}"))
        pending_before = cluster.total_pending_entries()
        assert pending_before > 0
        for idx in range(4):
            cluster.crash_server(idx)
        assert cluster.total_pending_entries() == 0  # DRAM lost
        for idx in range(4):
            cluster.recover_server(idx)
        assert cluster.total_pending_entries() == pending_before

    def test_recovery_time_scales_with_records(self):
        def recovery_time(n_files):
            cluster = SwitchFSCluster(
                FSConfig(num_servers=2, cores_per_server=2, proactive_enabled=False)
            )
            fs = cluster.client(0)
            cluster.run_op(fs.mkdir("/d"))
            for i in range(n_files):
                cluster.run_op(fs.create(f"/d/f{i}"))
            cluster.crash_server(0)
            return cluster.recover_server(0)

        assert recovery_time(60) > recovery_time(10)

    def test_single_server_crash_leaves_others_serving(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.statdir("/d"))  # populate the client's cache
        cluster.crash_server(2)
        # Ops landing on live servers still work; ops to the dead server
        # time out.  Find a file owned by a live server.
        landed = 0
        for i in range(12):
            owner = cluster.membership.current.file_owner(fs._cache["/d"].id, f"g{i}")
            if owner != "server-2":
                cluster.run_op(fs.create(f"/d/g{i}"))
                landed += 1
        assert landed > 0


    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 17: a crashed aggregator's round runs on against "
        "its new DRAM until an incarnation fence stops it",
    )
    def test_crash_of_the_aggregator_mid_round_keeps_count_and_listing(self):
        """The owner of /d crashes 30 us into the round a statdir opened,
        stays down 3 ms and recovers.  Today the dead round's apply leaves
        /d counting 0 of the 300 names it lists, and settle() says so."""
        cluster = SwitchFSCluster(
            FSConfig(num_servers=4, cores_per_server=2, proactive_enabled=False)
        )
        fs, sim = cluster.client(0), cluster.sim
        cluster.run_op(fs.mkdir("/d"))
        for i in range(300):
            cluster.run_op(fs.create(f"/d/f{i}"))
        fp = fingerprint_of(ROOT_ID, "d")
        owner_addr = cluster.membership.current.dir_owner_by_fp(fp)
        owner = cluster.server_by_addr(owner_addr)
        sim.spawn(fs.statdir("/d"), name="reader")
        while fp not in owner._group_blocks:
            sim.step()
        cluster.run(until=sim.now + 30.0)
        idx = cluster.servers.index(owner)
        cluster.crash_server(idx)
        cluster.run(until=sim.now + 3_000.0)
        cluster.recover_server(idx)
        cluster.settle()
        other = cluster.client(1)
        count = cluster.run_op(other.statdir("/d"))["entry_count"]
        listed = len(cluster.run_op(other.readdir("/d"))["entries"])
        assert count == listed == 300


class TestSwitchFailure:
    def test_switch_failure_flush_restores_consistency(self):
        cluster = SwitchFSCluster(
            FSConfig(num_servers=4, cores_per_server=2, proactive_enabled=False)
        )
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(10):
            cluster.run_op(fs.create(f"/d/f{i}"))
        assert cluster.total_pending_entries() > 0
        duration = cluster.fail_switch()
        assert duration > 0
        assert cluster.total_pending_entries() == 0
        assert cluster.switch_stats().occupancy == 0
        # After recovery, directories are in normal state and reads are
        # correct without any stale-set hits.
        info = cluster.run_op(fs.statdir("/d"))
        assert info["entry_count"] == 10

    def test_switch_failure_flush_leaves_nothing_to_replay(self):
        cluster = SwitchFSCluster(
            FSConfig(num_servers=4, cores_per_server=2, proactive_enabled=False)
        )
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(10):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.fail_switch()
        kinds = [r.kind for s in cluster.servers for r in s.wal.replay()]
        assert kinds.count("changelog") == 0 and kinds.count("agg") == 0

    def test_switch_failure_recovery_time_scales(self):
        def drill(n_files):
            cluster = SwitchFSCluster(
                FSConfig(num_servers=4, cores_per_server=2, proactive_enabled=False)
            )
            fs = cluster.client(0)
            cluster.run_op(fs.mkdir("/d"))
            for i in range(n_files):
                cluster.run_op(fs.create(f"/d/f{i}"))
            return cluster.fail_switch()

        assert drill(40) > drill(5)

    def test_flush_to_one_owner_from_many_servers_and_directories(self):
        """§4.4.2 on more than one directory: the set-up of
        ``benchmarks/test_recovery.py::test_switch_recovery_time``.  Every
        server flushes several directories to every owner, each in its own
        drain order; the owner takes their change-log locks in ``dir_id``
        order, so two flush_apply handlers cannot hold-and-wait on each
        other (they did: RpcTimeout after 10 attempts)."""
        cluster = SwitchFSCluster(
            FSConfig(num_servers=8, cores_per_server=4, seed=71, proactive_enabled=False)
        )
        bootstrap(cluster, multiple_directories(16, 2), warm_clients=[0])
        fs = cluster.client(0)
        for i in range(100):
            cluster.run_op(fs.create(f"/d{i % 16}/r{i}"))
        assert cluster.total_pending_entries() > 0
        assert cluster.fail_switch() > 0
        assert cluster.total_pending_entries() == 0
        for d in range(16):
            creates = len(range(d, 100, 16))
            info = cluster.run_op(fs.statdir(f"/d{d}"))
            assert info["entry_count"] == 2 + creates

    def test_ops_after_switch_recovery(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/before"))
        cluster.fail_switch()
        cluster.run_op(fs.create("/d/after"))
        listing = cluster.run_op(fs.readdir("/d"))
        assert sorted(listing["entries"]) == ["after", "before"]


class TestSilentChangeLogOwner:
    """§4.4 when one peer is network-silent (state intact) through a whole
    pull multicast, then heals: what the *answering* peers drained into
    their replies must land before the round fails."""

    @staticmethod
    def scattered_directory():
        cluster = SwitchFSCluster(
            FSConfig(num_servers=4, cores_per_server=2, proactive_enabled=False)
        )
        fs = cluster.client(0)
        dir_id = cluster.run_op(fs.mkdir("/d"))["id"]
        cluster.run_op(fs.statdir("/"))  # lands mkdir's own delayed update
        for i in range(12):
            cluster.run_op(fs.create(f"/d/f{i}"))
        owner = cluster.membership.current.dir_owner_by_fp(fingerprint_of(ROOT_ID, "d"))
        silent = next(s for s in cluster.servers if s.addr != owner)
        assert silent.pending_changelog_entries() > 0
        return cluster, fs, dir_id, silent

    def test_read_lands_what_the_answering_peers_handed_over(self):
        cluster, fs, _dir_id, silent = self.scattered_directory()
        silent.node.kill()
        with pytest.raises(FSError) as failure:
            cluster.run_op(fs.statdir("/d"))
        assert failure.value.code == "EIO"
        silent.node.revive()
        info = cluster.run_op(fs.statdir("/d"))
        listing = cluster.run_op(fs.readdir("/d"))
        assert info["entry_count"] == len(listing["entries"]) == 12
        cluster.settle()
        assert cluster.total_pending_entries() == 0

    def test_failed_rmdir_thaws_the_peers_it_froze(self):
        cluster, fs, dir_id, silent = self.scattered_directory()
        silent.node.kill()
        with pytest.raises(FSError) as failure:
            cluster.run_op(fs.rmdir("/d"))
        assert failure.value.code == "EIO"
        silent.node.revive()
        cluster.run(until=cluster.sim.now + 1_000.0)  # the owner's round winds up
        assert not any(dir_id in s.inval.snapshot() for s in cluster.servers)
        for i in range(24):
            cluster.run_op(fs.create(f"/d/g{i}"))
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 36
