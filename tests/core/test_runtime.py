"""Tests for the shared server runtime substrate (ServerRuntime),
the phase instrumentation and the unified error hierarchy."""

import pytest

from repro.baselines import BaselineCluster
from repro.bench import make_cluster
from repro.core import FSConfig, LibFS, MetadataServer, ServerRuntime, SwitchFSCluster
from repro.core.cluster import Cluster
from repro.errors import ReproError
from repro.bench.harness import RunResult
from repro.sim import LatencyRecorder, PhaseStats, SimulationError


def switchfs(**overrides):
    defaults = dict(num_servers=2, cores_per_server=2, seed=9)
    defaults.update(overrides)
    return SwitchFSCluster(FSConfig(**defaults))


def baseline(**overrides):
    defaults = dict(num_servers=2, cores_per_server=2, seed=9)
    defaults.update(overrides)
    return make_cluster("CFS-KV", FSConfig(**defaults))


class TestSharedRuntime:
    def test_both_server_types_are_runtime_instances(self):
        sw = switchfs()
        bl = baseline()
        assert isinstance(sw.servers[0], ServerRuntime)
        assert isinstance(bl.servers[0], ServerRuntime)

    def test_substrate_methods_are_shared_not_overridden(self):
        # The fair-comparison property (§6.1): CPU accounting, lock
        # acquisition, and RPC plumbing are the same code object for
        # SwitchFS and the baselines, not parallel implementations.
        for method in ("_cpu", "_acquire", "_release", "_call", "_inode_lock",
                       "_wait_recovered"):
            assert getattr(MetadataServer, method) is getattr(ServerRuntime, method)

    def test_client_and_cluster_are_shared_not_retyped(self):
        # The same cut one layer up: a baseline is SwitchFS's own server
        # and client with async_updates=False, and its cluster is the
        # cluster base with another network and placement.
        bl = baseline()
        assert all(type(server) is MetadataServer for server in bl.servers)
        assert type(bl.client(0)) is LibFS
        assert not bl.config.async_updates
        for method in ("client", "server_by_addr", "run_op", "run", "switch_stats"):
            assert getattr(SwitchFSCluster, method) is getattr(Cluster, method)
            assert getattr(BaselineCluster, method) is getattr(Cluster, method)

    def test_cpu_serializes_on_one_core(self):
        cluster = switchfs(num_servers=1, cores_per_server=1)
        server = cluster.servers[0]
        sim = cluster.sim

        def burn():
            yield server.charge_cpu(10.0)

        t0 = sim.now
        p1 = sim.spawn(burn(), name="b1")
        p2 = sim.spawn(burn(), name="b2")
        sim.run_process(p1)
        sim.run_process(p2)
        expected = 2 * 10.0 * server.perf.stack_multiplier
        assert sim.now - t0 == pytest.approx(expected)
        # The second burst's core wait landed in the queue phase.
        assert server.phases.total("queue") == pytest.approx(
            10.0 * server.perf.stack_multiplier
        )
        assert server.phases.total("cpu") == pytest.approx(expected)

    def test_recovery_gate_blocks_baseline_ops_too(self):
        cluster = baseline()
        fs = cluster.client(0)
        cluster.run_op(fs.create("/f"))
        for server in cluster.servers:
            server.begin_recovery()
        done = []

        def op():
            value = yield from fs.stat("/f")
            done.append(value)

        cluster.sim.spawn(op(), name="op")
        cluster.run(until=cluster.sim.now + 500.0)
        assert not done  # gated
        for server in cluster.servers:
            server.end_recovery()
        cluster.run(until=cluster.sim.now + 2_000.0)
        assert done

    def test_lock_wait_recorded_as_lock_phase(self):
        cluster = switchfs(num_servers=1)
        server = cluster.servers[0]
        sim = cluster.sim
        lock = server._inode_lock(("F", 0, "x"))

        def holder():
            yield from server._acquire(lock, "w")
            yield sim.timeout(50.0)
            lock.release_write()

        def waiter():
            yield from server._acquire(lock, "w")
            lock.release_write()

        p1 = sim.spawn(holder(), name="h")
        p2 = sim.spawn(waiter(), name="w")
        sim.run_process(p1)
        sim.run_process(p2)
        assert server.phases.total("lock") == pytest.approx(50.0)


class TestHeldOnlyLockTable:
    """The inode table holds a lock only while it is held or waited on."""

    KEY = ("F", 0, "x")

    @pytest.mark.parametrize("make", [switchfs, baseline], ids=["switchfs", "baseline"])
    def test_table_forgets_an_idle_lock_and_keeps_a_wanted_one(self, make):
        cluster = make(num_servers=1)
        server, sim = cluster.servers[0], cluster.sim
        table = server._inode_locks
        seen = []

        def holder():
            lock = yield from server._acquire(server._inode_lock(self.KEY), "w")
            yield sim.timeout(50.0)
            server._release(lock, "w")
            seen.append(table.get(self.KEY))

        def waiter():
            lock = yield from server._acquire(server._inode_lock(self.KEY), "r")
            seen.append(lock)
            server._release(lock, "r")

        p1, p2 = sim.spawn(holder(), name="h"), sim.spawn(waiter(), name="w")
        sim.run_process(p1)
        sim.run_process(p2)
        # The holder's release handed the lock to the waiter, so the table
        # kept it — one lock, FIFO intact — until the waiter let go.
        assert seen[0] is seen[1] and seen[0].readers == 0
        assert not table

    def test_acquiring_through_a_stale_handle_raises(self):
        """The hazard that kept idle locks unreclaimed until now: fetch a
        lock, park on something else, lock it afterwards.  If the table
        forgot it meanwhile, the next op to look the key up gets a
        different lock and the two exclude nobody — so it fails loudly."""
        cluster = switchfs(num_servers=1)
        server, sim = cluster.servers[0], cluster.sim

        def fetch_then_park():
            lock = server._inode_lock(self.KEY)  # fetched ahead of a yield
            yield sim.timeout(10.0)
            yield from server._acquire(lock, "w")

        def someone_else():
            lock = yield from server._acquire(server._inode_lock(self.KEY), "w")
            server._release(lock, "w")  # idle: the table forgets it

        stale = sim.spawn(fetch_then_park(), name="stale")
        sim.run_process(sim.spawn(someone_else(), name="other"))
        with pytest.raises(SimulationError, match="after its table forgot it"):
            sim.run_process(stale)

    def test_acquiring_through_a_handle_from_before_a_crash_raises(self):
        """crash() gives the server a new lock table; a lock fetched from
        the old one must still be refused, not excluding nobody."""
        cluster = switchfs(num_servers=1)
        server, sim = cluster.servers[0], cluster.sim

        def fetch_crash_acquire():
            lock = server._inode_lock(self.KEY)
            yield sim.timeout(10.0)
            server.crash()
            yield from server._acquire(lock, "w")

        with pytest.raises(SimulationError, match="after its table forgot it"):
            sim.run_process(sim.spawn(fetch_crash_acquire(), name="stale"))

    def test_release_of_a_lock_from_before_a_crash_leaves_the_new_entry(self):
        cluster = switchfs(num_servers=1)
        server = cluster.servers[0]
        old = server._inode_lock(self.KEY)
        assert old.acquire_write() is None
        server.crash()
        new = server._inode_lock(self.KEY)
        assert new is not old and new.acquire_read() is None
        server._release(old, "w")
        assert server._inode_locks[self.KEY] is new
        server._release(new, "r")
        assert self.KEY not in server._inode_locks


class TestPhaseStats:
    def test_accumulates_and_means(self):
        ps = PhaseStats()
        ps.cpu += 2.0
        ps.cpu += 4.0
        ps.net += 1.0
        assert ps.total("cpu") == pytest.approx(6.0)
        assert ps.total("lock") == 0.0
        # The per-op mean is what a run reports.
        run = RunResult(ops_completed=2, sim_elapsed_us=10.0, wall_seconds=0.0,
                        latency=LatencyRecorder(), inflight=1, phases=ps)
        assert run.phase_mean_us("cpu") == pytest.approx(3.0)
        assert run.phase_mean_us("lock") == 0.0

    def test_negative_sample_rejected(self):
        # A CPU charge books its own length as cpu time: a negative one is
        # refused at issue and books nothing.
        cluster = switchfs()
        server = cluster.servers[0]
        with pytest.raises(SimulationError):
            server.charge_cpu(-0.1)
        assert [server.phases.total(p) for p in PhaseStats.PHASES] == [0.0] * 4

    def test_merge_and_clear(self):
        a, b = PhaseStats(), PhaseStats()
        a.cpu += 1.0
        b.cpu += 2.0
        b.queue += 3.0
        a.merge(b)
        assert a.total("cpu") == pytest.approx(3.0)
        assert a.total("queue") == pytest.approx(3.0)
        a.clear()
        assert [a.total(p) for p in PhaseStats.PHASES] == [0.0] * 4

    def test_servers_record_phases_during_ops(self):
        cluster = switchfs()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        total_cpu = sum(s.phases.total("cpu") for s in cluster.servers)
        assert total_cpu > 0.0


class TestErrorHierarchy:
    def test_fs_and_kv_errors_share_the_root(self):
        from repro.errors import FSError, KeyNotFound, KVError
        from repro.net import RpcError

        assert issubclass(RpcError, ReproError)
        assert issubclass(FSError, RpcError)
        assert issubclass(FSError, ReproError)
        assert issubclass(KVError, ReproError)
        assert issubclass(KeyNotFound, KVError)

    def test_one_except_catches_every_layer(self):
        from repro.errors import ENOENT, FSError, KeyNotFound

        for exc in (FSError(ENOENT, "x"), KeyNotFound("k")):
            try:
                raise exc
            except ReproError:
                pass
