"""Elastic scale-out/in: live shard migration under a running namespace.

The oracle is a static cluster running the identical operation sequence:
a mid-run join + leave must be invisible in the final namespace (zero
lost, zero duplicated metadata operations).
"""

import pytest

from repro.analysis import (
    SimTracer,
    instrument_server,
    lock_order_cycles,
    race_findings,
)
from repro.core import FSConfig, SwitchFSCluster, fingerprint_of, ROOT_ID
from repro.core.membership import plan_scale_up


def _workload_ops(phase: int):
    """One deterministic batch of mixed metadata ops per phase."""
    ops = []
    d = f"/phase{phase}"
    ops.append(("mkdir", d))
    for i in range(12):
        ops.append(("create", f"{d}/f{i}"))
    for i in range(0, 12, 3):
        ops.append(("delete", f"{d}/f{i}"))
    ops.append(("create", f"{d}/extra"))
    ops.append(("rename", f"{d}/extra", f"{d}/renamed"))
    return ops


def _apply(cluster, fs, ops):
    for op in ops:
        if op[0] == "rename":
            cluster.run_op(getattr(fs, op[0])(op[1], op[2]))
        else:
            cluster.run_op(getattr(fs, op[0])(op[1]))


def _namespace(cluster, fs, dirs):
    """Logical namespace snapshot: per-directory listing + entry count."""
    snap = {}
    for d in dirs:
        listing = cluster.run_op(fs.readdir(d))
        info = cluster.run_op(fs.statdir(d))
        snap[d] = (sorted(listing["entries"]), info["entry_count"])
    return snap


def _run_elastic(seed=11):
    """3 phases of ops with a join after phase 0 and a leave after 1."""
    cluster = SwitchFSCluster(FSConfig(num_servers=2, seed=seed))
    fs = cluster.client(0)
    _apply(cluster, fs, _workload_ops(0))
    up = cluster.run_op(cluster.scale_up_gen())
    _apply(cluster, fs, _workload_ops(1))
    down = cluster.run_op(cluster.scale_down_gen("server-0"))
    _apply(cluster, fs, _workload_ops(2))
    cluster.settle()
    dirs = ["/", "/phase0", "/phase1", "/phase2"]
    return cluster, fs, _namespace(cluster, fs, dirs), (up, down)


class TestNamespaceEquivalenceOracle:
    def test_mid_run_join_and_leave_equals_static_run(self):
        elastic_cluster, elastic_fs, elastic_ns, (up, down) = _run_elastic()

        static_cluster = SwitchFSCluster(FSConfig(num_servers=2, seed=11))
        static_fs = static_cluster.client(0)
        for phase in range(3):
            _apply(static_cluster, static_fs, _workload_ops(phase))
        static_cluster.settle()
        static_ns = _namespace(
            static_cluster, static_fs, ["/", "/phase0", "/phase1", "/phase2"]
        )

        assert elastic_ns == static_ns
        # The transitions really moved state and bumped epochs.
        assert up["epoch"] == 1 and down["epoch"] == 2
        assert up["migrated_keys"] > 0 and down["migrated_keys"] > 0
        assert up["shards_moved"] > 0 and down["shards_moved"] > 0
        assert elastic_cluster.membership.current.epoch == 2

    def test_stale_clients_redirect_and_refresh(self):
        cluster, fs, _ns, _stats = _run_elastic()
        counts = fs.counters.as_dict()
        # The client rode through both transitions on stale views: the
        # WrongEpoch redirect protocol must actually have fired.
        assert counts.get("wrong_epoch_retries", 0) > 0
        assert counts.get("epoch_refreshes", 0) > 0

    def test_elastic_run_is_deterministic(self):
        c1, _fs1, ns1, stats1 = _run_elastic()
        c2, _fs2, ns2, stats2 = _run_elastic()
        assert ns1 == ns2
        assert stats1 == stats2
        assert c1.sim.now == c2.sim.now


class TestScaleDownDetails:
    def test_rename_coordinator_hand_off_when_server0_leaves(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=2, seed=5))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/proj"))
        cluster.run_op(fs.mkdir("/proj/v1"))
        assert cluster.membership.current.rename_coordinator == "server-0"

        cluster.run_op(cluster.scale_down_gen("server-0"))
        assert cluster.membership.current.rename_coordinator == "server-1"

        # The client still holds the pre-leave view; the directory rename
        # must land on the new coordinator via redirect + refresh.
        result = cluster.run_op(fs.rename("/proj/v1", "/proj/v2"))
        assert result["status"] == "ok"
        assert fs.counters.get("wrong_epoch_retries") > 0
        listing = cluster.run_op(fs.readdir("/proj"))
        assert listing["entries"] == ["v2"]

    def test_retired_server_holds_no_namespace_state(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=2, seed=9))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(10):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.run_op(cluster.scale_down_gen("server-1"))
        cluster.settle()
        leaver = cluster.server_by_addr("server-1")
        assert leaver in cluster.retired
        assert len(list(leaver.kv.scan_prefix(("D",)))) == 0
        assert len(list(leaver.kv.scan_prefix(("F",)))) == 0
        assert leaver.pending_changelog_entries() == 0
        # Survivor serves the full namespace.
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 10

    def test_scale_down_last_member_is_rejected(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=1, seed=3))
        with pytest.raises(ValueError):
            cluster.run_op(cluster.scale_down_gen("server-0"))


class TestMigrationLockDiscipline:
    def test_traced_migration_has_no_cycles_or_races(self):
        cluster = SwitchFSCluster(
            FSConfig(num_servers=3, cores_per_server=2, seed=13)
        )
        tracer = SimTracer(capture_stacks=False)
        tracer.attach(cluster.sim)
        for server in cluster.servers:
            instrument_server(tracer, server)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/t"))
        for i in range(12):
            cluster.run_op(fs.create(f"/t/f{i}"))
        cluster.run_op(cluster.scale_up_gen())
        for i in range(12, 20):
            cluster.run_op(fs.create(f"/t/f{i}"))
        cluster.run_op(cluster.scale_down_gen("server-1"))
        for i in range(20, 24):
            cluster.run_op(fs.create(f"/t/f{i}"))
        cluster.settle()
        tracer.detach()

        assert cluster.run_op(fs.statdir("/t"))["entry_count"] == 24
        assert tracer.lock_events
        assert lock_order_cycles(tracer) == []
        assert race_findings(tracer) == []


class TestDrainAccounting:
    """drain_us/drain_groups distinguish "nothing to drain" from a
    measured drain (BENCH elasticity entries carry both)."""

    def test_migration_with_pending_changelogs_measures_drain(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=2, seed=11))
        fs = cluster.client(0)
        # Spread pending async updates over many groups: run_op stops at
        # op completion, so the aggregation timers have not fired and the
        # change-logs still hold entries when the migration starts.
        for i in range(8):
            cluster.run_op(fs.mkdir(f"/d{i}"))
        for i in range(8):
            for j in range(4):
                cluster.run_op(fs.create(f"/d{i}/f{j}"))
        assert any(
            list(s.changelogs.non_empty_groups()) for s in cluster.servers
        )
        up = cluster.run_op(cluster.scale_up_gen())
        assert up["drain_groups"] > 0
        assert up["drain_us"] > 0.0

    def test_migration_with_settled_changelogs_reports_zero_groups(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=2, seed=11))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/q"))
        for j in range(6):
            cluster.run_op(fs.create(f"/q/f{j}"))
        cluster.settle()  # flush every change-log before migrating
        up = cluster.run_op(cluster.scale_up_gen())
        # The zero is explained, not ambiguous: no groups needed draining.
        assert up["drain_groups"] == 0
        assert up["drain_us"] == 0.0


class TestStaleSetReconciliation:
    """After a migration the control plane clears the stale-set bits of
    provably settled directories, and only those."""

    @staticmethod
    def make():
        return SwitchFSCluster(
            FSConfig(num_servers=4, cores_per_server=2, seed=14, proactive_enabled=False)
        )

    @staticmethod
    def twelve_directories(cluster):
        fs = cluster.client(0)
        for i in range(12):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
            cluster.run_op(fs.create(f"/dir{i}/f"))
        return fs

    @staticmethod
    def moving_directories(cluster, count):
        view = cluster.membership.current
        _, _, moved = plan_scale_up(view, f"server-{len(view.servers)}")
        fps = {f"/dir{i}": fingerprint_of(ROOT_ID, f"dir{i}") for i in range(count)}
        moving = {d: fp for d, fp in fps.items() if fp % view.num_shards in moved}
        return fps, moving

    def test_bits_left_by_lost_removes_are_reclaimed(self):
        cluster = self.make()
        fs = cluster.client(0)
        for i in range(40):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
        cluster.run_op(fs.statdir("/"))  # aggregate the root: nothing pending
        assert cluster.total_pending_entries() == 0
        assert cluster.switch_stats().occupancy == 0
        # A bit with nothing pending behind it, as a lost REMOVE leaves it.
        stale_set = cluster.control.switch.stale_set
        fps, moving = self.moving_directories(cluster, 40)
        for fp in fps.values():
            assert stale_set.insert(fp)
        stats = cluster.run_op(cluster.scale_up_gen())
        assert stats["stale_bits_cleared"] == len(moving)
        for name, fp in fps.items():
            assert stale_set.query(fp) == (name not in moving), name
        assert cluster.switch_stats().occupancy == len(fps) - len(moving) == 35

    def test_bits_the_drain_already_cleared_are_not_counted(self):
        """Fault-free, the online drain's REMOVE clears the moving
        directory's bit before the cutover: the control plane clears
        nothing more and reports so."""
        cluster = self.make()
        self.twelve_directories(cluster)
        _, moving = self.moving_directories(cluster, 12)
        (fp,) = moving.values()
        stale_set = cluster.control.switch.stale_set
        assert stale_set.query(fp)
        occupancy = cluster.switch_stats().occupancy
        stats = cluster.run_op(cluster.scale_up_gen())
        assert stats["drain_groups"] > 0
        assert not stale_set.query(fp)
        assert stats["stale_bits_cleared"] == 0
        assert cluster.switch_stats().occupancy == occupancy - 1

    def test_directory_with_pending_entries_keeps_its_bit(self):
        cluster = self.make()
        fs = self.twelve_directories(cluster)
        _, moving = self.moving_directories(cluster, 12)
        (name, fp), = moving.items()
        writer_fs = cluster.client(1)

        def writer():
            # Lands creates in the moving directory between the online
            # drain and the cutover, so entries are pending at reconcile.
            yield cluster.sim.timeout(10.0)
            for j in range(6):
                yield from writer_fs.create(f"{name}/g{j}")

        control = cluster.control
        stale_set = control.switch.stale_set
        seen = {}
        reconcile = control.reconcile_stale_set

        def spy(safe):
            safe = list(safe)
            seen["safe"] = safe
            seen["pending"] = cluster._pending_for_fp(fp)
            seen["bit"] = stale_set.query(fp)
            return reconcile(safe)

        control.reconcile_stale_set = spy
        proc = cluster.sim.spawn(writer(), name="writer")
        cluster.run_op(cluster.scale_up_gen())
        assert seen["pending"] > 0 and seen["bit"] and fp not in seen["safe"]
        assert stale_set.query(fp)  # still scattered
        cluster.sim.run_process(proc)
        assert cluster.run_op(fs.statdir(name))["entry_count"] == 7
        assert not stale_set.query(fp)  # aggregated
