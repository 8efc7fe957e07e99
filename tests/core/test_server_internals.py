"""White-box tests of MetadataServer internals."""

import pytest

from repro.core import (
    ChangeLogEntry,
    ChangeOp,
    FSConfig,
    FSError,
    SwitchFSCluster,
    dir_entry_key,
    dir_meta_key,
    file_meta_key,
    fingerprint_of,
    ROOT_ID,
)
from repro.bench import make_cluster
from repro.core.server import MetadataServer
from repro.core.server.ops import UNLOCK_WATCHDOG_US
from repro.net import RpcError
from repro.sim import SimulationError


def make(**overrides):
    defaults = dict(num_servers=3, cores_per_server=2, seed=6)
    defaults.update(overrides)
    return SwitchFSCluster(FSConfig(**defaults))


#: What a crash does not lose, each with why (DESIGN §6); everything else
#: a server holds is DRAM, assigned fresh by ``_lose_dram``.
DURABLE = (
    ("sim", "the hardware"),
    ("addr", "the hardware"),
    ("config", "the hardware"),
    ("perf", "the hardware"),
    ("_stack_mult", "the hardware"),
    ("cores", "the hardware"),
    ("node", "the hardware: crash() kills the NIC and recover() revives it"),
    ("kv", "the WAL-backed store: kv.crash() drops what the WAL does not hold"),
    ("wal", "the WAL-backed store"),
    ("membership", "the cluster's view, shared by every server"),
    ("ss", "the client of the stale-set server"),
    ("counters", "measurement"),
    ("phases", "measurement"),
    ("_recovered_ev", "the gate recover() raises and lowers"),
    ("_rename_serial", "left to ROADMAP item 17's incarnation fence"),
    ("_wd_armed", "the scanner's timer is in the sim heap; a reset would arm a second"),
    ("_remove_seq", "the switch drops a REMOVE whose SEQ is not above the last (§4.4.1)"),
    ("_dir_nonce", "a directory id must name exactly one mkdir"),
    ("_checkpoint_image", "a checkpoint is on disk"),
)
#: A static partition (InfiniFS's, Ceph's) never moves, so its servers'
#: owner checks are no-ops.
ROUTED_HERE = {"_check_owner_file", "_check_owner_dir"}


def dram_names():
    """The names ``_lose_dram`` assigns, read off a server it alone built."""
    probe = object.__new__(MetadataServer)
    probe._lose_dram()
    return set(vars(probe))


class TestCrashLosesDram:
    @pytest.mark.parametrize("system, static", [
        ("SwitchFS", False), ("CFS-KV", False), ("InfiniFS", True)])
    def test_every_attribute_is_dram_or_durable_and_a_crash_renews_the_dram(
            self, system, static):
        cluster = make_cluster(system, FSConfig(num_servers=3, cores_per_server=2, seed=6))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(5):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.run_op(fs.rename("/d", "/e"))
        cluster.run_op(fs.statdir("/e"))
        dram, durable = dram_names(), {name for name, _ in DURABLE}
        assert not dram & durable
        if static:
            durable |= ROUTED_HERE
        for server in cluster.servers:
            cluster.run_op(server.checkpoint())
            assert set(vars(server)) == dram | durable, "a new field needs a side"
            before = {name: getattr(server, name) for name in dram}
            server.crash()
            for name in dram - {"_inflight_mutators"}:
                assert getattr(server, name) is not before[name], name
            assert server._inflight_mutators == 0


class TestMergePulled:
    def test_merges_remote_and_local(self):
        cluster = make()
        server = cluster.servers[0]
        e1 = ChangeLogEntry(1.0, ChangeOp.CREATE, "a")
        e2 = ChangeLogEntry(2.0, ChangeOp.CREATE, "b")
        e3 = ChangeLogEntry(3.0, ChangeOp.DELETE, "a")
        remote = [{"logs": [(10, [e1])], "lsns": [0]},
                  {"logs": [(10, [e2]), (11, [e3])], "lsns": [1, 2]}]
        local = [(10, [e3], [5])]
        merged = server._merge_pulled(remote, local)
        by_dir = {d: entries for d, entries, _ in merged}
        assert len(by_dir[10]) == 3
        assert by_dir[11] == [e3]
        lsns = {d: lsns for d, _, lsns in merged}
        assert lsns[10] == [5]  # local lsns preserved
        assert lsns[11] is None

    def test_empty_inputs(self):
        cluster = make()
        assert cluster.servers[0]._merge_pulled([], []) == []


class TestApplyEntryToList:
    def test_create_then_delete_roundtrip(self):
        cluster = make()
        server = cluster.servers[0]
        e_add = ChangeLogEntry(1.0, ChangeOp.CREATE, "x")
        e_del = ChangeLogEntry(2.0, ChangeOp.DELETE, "x")
        appends = server.kv.wal.appends
        assert server._apply_entries_to_list(99, (e_add,)) == 1
        assert server.kv.wal.appends == appends + 1  # one record per apply
        assert dir_entry_key(99, "x") in server.kv
        assert server._apply_entries_to_list(99, (e_del,)) == -1
        assert dir_entry_key(99, "x") not in server.kv

    def test_reapplication_is_idempotent_for_counts(self):
        """Presence-aware deltas: double-applying an entry adds zero."""
        cluster = make()
        server = cluster.servers[0]
        e = ChangeLogEntry(1.0, ChangeOp.CREATE, "y")
        assert server._apply_entries_to_list(7, (e,)) == 1
        assert server._apply_entries_to_list(7, (e,)) == 0
        e_del = ChangeLogEntry(2.0, ChangeOp.DELETE, "y")
        assert server._apply_entries_to_list(7, (e_del,)) == -1
        appends = server.kv.wal.appends
        assert server._apply_entries_to_list(7, (e_del,)) == 0
        assert server.kv.wal.appends == appends  # an absent name's delete logs nothing


class TestUnlockTokens:
    def test_duplicate_release_is_noop(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        # All tokens already released by the switch multicast; releasing a
        # bogus token again must not blow up.
        for server in cluster.servers:
            server.release_unlock_token(424242, applied_sync=False)
            assert not server._pending_unlocks

    def test_watchdog_releases_leaked_locks(self):
        cluster = make(proactive_enabled=False)
        server = cluster.servers[0]
        # Forge a pending unlock with held locks.
        from repro.sim import RWLock

        lock = RWLock(cluster.sim)
        cluster.sim.run_process(cluster.sim.spawn(_acquire(lock), name="acq"))
        log = server.changelogs.log_for(5, fingerprint_of(ROOT_ID, "z"))
        deadline = cluster.sim.now + UNLOCK_WATCHDOG_US
        server._pending_unlocks[777] = {
            "locks": [(lock, "w")], "log": log,
            "entry": ChangeLogEntry(1.0, ChangeOp.CREATE, "z"), "lsn": 0,
            "deadline": deadline,
        }
        server._arm_watchdog()
        cluster.run(until=deadline - 1.0)
        assert lock.write_locked  # held until the watchdog's deadline
        cluster.run(until=deadline + 1.0)
        assert not lock.write_locked
        assert 777 not in server._pending_unlocks  # the watchdog released it


def _acquire(lock):
    queued = lock.acquire_write()
    if queued is not None:
        yield queued


def _scanners(server):
    """The watchdog scanner timers of *server* waiting in the sim heap."""
    return [e for _, _, e in server.sim._heap if e._cb1 == server._watchdog_scan]


class TestOneWatchdogScanner:
    def test_each_entry_is_released_at_its_own_deadline(self):
        """A deferred unlock at t and a pull lock at t + 5 ms share one
        scanner timer, and each is released at its own t + W."""
        from repro.sim import RWLock

        cluster = make(proactive_enabled=False)
        server, sim = cluster.servers[0], cluster.sim
        unlock = RWLock(sim)
        sim.run_process(sim.spawn(_acquire(unlock), name="acq"))
        t = sim.now
        server._pending_unlocks[777] = {
            "locks": [(unlock, "w")],
            "log": server.changelogs.log_for(5, fingerprint_of(ROOT_ID, "z")),
            "entry": ChangeLogEntry(1.0, ChangeOp.CREATE, "z"), "lsn": 0,
            "deadline": t + UNLOCK_WATCHDOG_US,
        }
        server._arm_watchdog()
        cluster.run(until=t + 5_000.0)
        fp = fingerprint_of(ROOT_ID, "p")
        pull = server._changelog_lock(fp)
        sim.run_process(sim.spawn(server._acquire(pull, "w"), name="pull"))
        server._pull_locks[fp] = pull
        server._pull_wd[fp] = (sim.now + UNLOCK_WATCHDOG_US, pull)
        server._arm_watchdog()
        assert len(_scanners(server)) == 1

        def at(when):
            cluster.run(until=when)
            assert len(_scanners(server)) == (1 if server._wd_armed else 0)
            return unlock.write_locked, pull.write_locked

        assert at(t + UNLOCK_WATCHDOG_US - 1.0) == (True, True)
        assert at(t + UNLOCK_WATCHDOG_US + 1.0) == (False, True)
        assert at(t + 5_000.0 + UNLOCK_WATCHDOG_US - 1.0) == (False, True)
        assert at(t + 5_000.0 + UNLOCK_WATCHDOG_US + 1.0) == (False, False)
        assert not server._pending_unlocks and fp not in server._pull_locks
        assert not server._wd_armed and not _scanners(server)


class TestGroupBlocks:
    def test_reads_wait_for_inflight_aggregation(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        fp = fingerprint_of(ROOT_ID, "d")
        owner = cluster.server_by_addr(cluster.membership.current.dir_owner_by_fp(fp))
        # Block the group manually, issue a statdir, confirm it stalls.
        block = cluster.sim.event()
        owner._group_blocks[fp] = block
        done = []

        def reader():
            value = yield from fs.statdir("/d")
            done.append(value)

        cluster.sim.spawn(reader(), name="reader")
        cluster.run(until=cluster.sim.now + 300.0)
        assert not done  # still blocked
        del owner._group_blocks[fp]
        block.succeed()
        cluster.run(until=cluster.sim.now + 2_000.0)
        assert done and done[0]["entry_count"] == 1


class TestFailedPush:
    def test_restore_waits_for_a_pull_holding_the_group_lock(self, monkeypatch):
        """A push whose RPC fails puts its entries back as an appender does:
        under the group's change-log lock in read mode, so a pull that
        write-holds the lock never sees them land in the middle of its
        round."""
        cluster = make(proactive_enabled=False)
        sim = cluster.sim
        server = cluster.servers[0]
        view = cluster.membership.current
        # A directory another server owns, so the push ships its log.
        fp = next(fp for fp in (fingerprint_of(ROOT_ID, f"d{i}") for i in range(64))
                  if view.dir_owner_by_fp(fp) != server.addr)
        entries = [ChangeLogEntry(float(i), ChangeOp.CREATE, f"f{i}") for i in range(3)]
        lsns = server.wal.append_many("changelog", [(7, fp, e) for e in entries])
        server.changelogs.extend(7, fp, entries, lsns, sim.now)
        log = server.changelogs.log_for(7, fp)

        def failing_call(dst, method, args, max_attempts=None):
            yield sim.timeout(10.0)
            raise RpcError("owner unreachable")

        monkeypatch.setattr(server, "_call", failing_call)
        sim.spawn(server._push_log(log), name="push")
        cluster.run(until=sim.now + 5.0)
        assert len(log) == 0  # drained; the push is in flight
        lock = server._changelog_lock(fp)
        sim.spawn(_acquire(lock), name="pull")  # a pull write-holds the group
        cluster.run(until=sim.now + 20.0)  # the push has failed meanwhile
        assert lock.write_locked
        assert len(log) == 0
        lock.release_write()
        cluster.run(until=sim.now + 1.0)
        assert log.entries == entries


class TestOneQueuedPush:
    def test_mtu_trigger_queues_one_push_behind_a_pull(self, monkeypatch):
        """A pull write-holds a remote-owned group's change-log lock while
        the log's appenders report in past the MTU trigger (§4.3): the
        first report queues the one push of the log, the others start
        none, and once the lock is free that push ships every entry."""
        cluster = make()
        sim = cluster.sim
        server = cluster.servers[0]
        view = cluster.membership.current
        fp = next(fp for fp in (fingerprint_of(ROOT_ID, f"d{i}") for i in range(64))
                  if view.dir_owner_by_fp(fp) != server.addr)
        lock = server._changelog_lock(fp)
        sim.run_process(sim.spawn(_acquire(lock), name="pull"))
        spawned, shipped = [], []
        push_log = server._push_log

        def counted_push(log):
            spawned.append(log)
            return push_log(log)

        def owner_call(dst, method, args, max_attempts=None):
            shipped.append(list(args["entries"]))
            yield sim.timeout(1.0)
            return {"status": "ok"}

        monkeypatch.setattr(server, "_push_log", counted_push)
        monkeypatch.setattr(server, "_call", owner_call)
        # The appenders' read locks were granted before the pull queued;
        # each reports its append once it is done, as release_unlock_token
        # does.
        entries = [ChangeLogEntry(float(i), ChangeOp.CREATE, f"f{i}")
                   for i in range(server.config.proactive_push_entries + 6)]
        for entry in entries:
            lsn = server.wal.append("changelog", (7, fp, entry))
            log = server.changelogs.append(7, fp, entry, lsn, sim.now)
            server._maybe_push(log)
        cluster.run(until=sim.now + 20.0)
        assert spawned == [log] and log.push_queued
        assert log.entries == entries and shipped == []
        lock.release_write()
        cluster.run(until=sim.now + 20.0)
        assert shipped == [entries]
        assert len(log) == 0 and not log.push_queued
        assert spawned == [log]


class TestPullLocks:
    def test_release_without_locks_is_safe(self):
        cluster = make()
        cluster.servers[0]._release_pull_locks(999)  # no-op

    @pytest.mark.parametrize("method", ["agg_pull", "invalidate_and_pull"])
    def test_second_pull_waits_for_first_ack(self, method):
        """One hand-over serves both pulls: the group's logs stay locked
        from the pull to its ack (§4.2.2 step 9a), so a second pull of the
        group queues behind the first; only rmdir's pull invalidates."""
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        made = cluster.run_op(fs.mkdir("/d"))
        for i in range(6):
            cluster.run_op(fs.create(f"/d/f{i}"))
        fp, dir_id = made["fingerprint"], made["id"]
        owner = cluster.membership.current.dir_owner_by_fp(fp)
        peer = next(
            s for s in cluster.servers
            if s.addr != owner and s.changelogs.logs_in_group(fp)
        )
        puller = cluster.client(1).node
        replies = []

        def pull():
            value, _ = yield from puller.call(
                peer.addr, method, {"fp": fp, "dir_id": dir_id}, max_attempts=8
            )
            replies.append(value)

        cluster.sim.run_process(cluster.sim.spawn(pull(), name="pull-1"))
        assert replies[0]["logs"] and fp in peer._pull_locks
        cluster.sim.spawn(pull(), name="pull-2")
        cluster.run(until=cluster.sim.now + 1_000.0)
        assert len(replies) == 1  # parked behind the first pull's lock
        puller.notify(peer.addr, "agg_ack", {"fp": fp, "lsns": replies[0]["lsns"]})
        cluster.run(until=cluster.sim.now + 1_000.0)
        assert len(replies) == 2 and replies[1]["logs"] == []
        assert (not peer.inval.validate([dir_id])) == (method == "invalidate_and_pull")

    def test_pull_parked_across_a_crash_is_answered_after_recovery(self):
        """A crash drops the group lock a second pull is parked on; the
        aggregator's retry reaches the recovered server, which answers it
        from a fresh lock and forgets that lock at the ack."""
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        made = cluster.run_op(fs.mkdir("/d"))
        for i in range(6):
            cluster.run_op(fs.create(f"/d/f{i}"))
        fp = made["fingerprint"]
        owner = cluster.membership.current.dir_owner_by_fp(fp)
        idx, peer = next(
            (i, s) for i, s in enumerate(cluster.servers)
            if s.addr != owner and s.changelogs.logs_in_group(fp)
        )
        puller = cluster.client(1).node
        replies = []

        def pull():
            value, _ = yield from puller.call(peer.addr, "agg_pull", {"fp": fp}, max_attempts=50)
            replies.append(value)

        cluster.sim.run_process(cluster.sim.spawn(pull(), name="pull-1"))
        drained = {e.name for _d, entries in replies[0]["logs"] for e in entries}
        second = cluster.sim.spawn(pull(), name="pull-2")
        cluster.run(until=cluster.sim.now + 300.0)
        assert len(replies) == 1  # parked on the group lock the first pull holds
        cluster.crash_server(idx)
        cluster.recover_server(idx)
        cluster.sim.run_process(second)
        # The first pull was never acked, so WAL replay restored its entries
        # and the retried pull hands them over again.
        assert {e.name for _d, entries in replies[1]["logs"] for e in entries} == drained
        assert fp in peer._pull_locks
        puller.notify(peer.addr, "agg_ack", {"fp": fp, "lsns": replies[1]["lsns"]})
        cluster.run(until=cluster.sim.now + 1_000.0)
        assert not peer._pull_locks and not peer._changelog_locks and not peer._inode_locks


class TestFlushAllChangelogs:
    def test_flush_applies_remote_and_local(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(6):
            cluster.run_op(fs.create(f"/d/f{i}"))
        assert cluster.total_pending_entries() > 0

        def drive():
            for server in cluster.servers:
                yield cluster.sim.spawn(server.flush_all_changelogs(), name="f")

        cluster.sim.run_process(cluster.sim.spawn(drive(), name="drv"))
        assert cluster.total_pending_entries() == 0
        # Inode is current without any aggregation.
        fp = fingerprint_of(ROOT_ID, "d")
        owner = cluster.server_by_addr(cluster.membership.current.dir_owner_by_fp(fp))
        inode = owner.kv.get(dir_meta_key(ROOT_ID, "d"))
        assert inode.entry_count == 6


class TestRecoveryBlocksOps:
    def test_ops_wait_until_end_recovery(self):
        cluster = make()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for server in cluster.servers:
            server.begin_recovery()
        done = []

        def op():
            value = yield from fs.create("/d/f")
            done.append(value)

        cluster.sim.spawn(op(), name="op")
        cluster.run(until=cluster.sim.now + 500.0)
        assert not done
        for server in cluster.servers:
            server.end_recovery()
        cluster.run(until=cluster.sim.now + 2_000.0)
        assert done


class TestDoubleInodeLockDiscipline:
    """Characterization: the double-inode flow's lock acquisition order.

    Create/delete/mkdir/rmdir take the READ lock of the parent's
    change-log group, keyed by the parent's fingerprint, first, then the
    target inode's WRITE lock (ops.py).  Aggregation write-locks the
    group, so this ordering is what lets updates of one directory proceed
    concurrently while an aggregation drains its group exclusively.  A
    reordering would be a protocol change.
    """

    @pytest.mark.parametrize("op", ["create", "delete", "mkdir", "rmdir"])
    def test_lock_order(self, op):
        cluster = make(num_servers=1, proactive_enabled=False)
        server = cluster.servers[0]
        fs = cluster.client(0)
        made = cluster.run_op(fs.mkdir("/d"))
        d_id, d_fp = made["id"], made["fingerprint"]
        cluster.run_op(fs.create("/d/f"))
        cluster.run_op(fs.mkdir("/d/sub"))
        target = {"create": "/d/g", "delete": "/d/f", "mkdir": "/d/sub2", "rmdir": "/d/sub"}[op]
        make_key = file_meta_key if op in ("create", "delete") else dir_meta_key

        order = []
        orig_acquire = server._acquire

        def recording(lock, mode):
            # By name: the tables forget a lock once it is idle, so the
            # object an op locked is gone when the op is.
            order.append((lock.name, mode))
            return orig_acquire(lock, mode)

        server._acquire = recording
        try:
            cluster.run_op(getattr(fs, op)(target))
        finally:
            server._acquire = orig_acquire

        cl_lock = f"changelog:{server.addr}:{d_fp!r}"
        inode_lock = f"inode:{server.addr}:{make_key(d_id, target.rsplit('/', 1)[1])!r}"
        assert order.index((cl_lock, "r")) < order.index((inode_lock, "w"))
        assert not server._inode_locks and not server._changelog_locks

    def test_rmdir_of_a_directory_sharing_its_parents_fingerprint(self, monkeypatch):
        """rmdir read-locks its parent's group and its round write-locks
        its own: when the two groups are one, rmdir takes the lock once, in
        write mode, and its round does not take it again."""
        from repro.core import client, membership, schema
        from repro.core.server import ops, reads, renamepart

        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        made = cluster.run_op(fs.mkdir("/d"))
        real = schema.fingerprint_of

        def colliding(pid, name):
            return made["fingerprint"] if (pid, name) == (made["id"], "sub") else real(pid, name)

        for module in (schema, client, membership, ops, reads, renamepart):
            monkeypatch.setattr(module, "fingerprint_of", colliding)
        sub = cluster.run_op(fs.mkdir("/d/sub"))
        assert sub["fingerprint"] == made["fingerprint"]
        cluster.run_op(fs.create("/d/f"))
        start = cluster.sim.now
        cluster.run_op(fs.rmdir("/d/sub"))
        assert cluster.sim.now - start < 1_000.0  # no RPC ran out of attempts
        assert cluster.run_op(fs.readdir("/d"))["entries"] == ["f"]
        for server in cluster.servers:
            assert not server._inode_locks and not server._changelog_locks


class TestAppenderRule:
    """Whoever appends a change-log entry holds its group's change-log lock
    (DESIGN §12): the one append site refuses a custody list without it,
    before anything is logged."""

    def test_append_without_the_group_lock_is_refused(self):
        cluster = make(proactive_enabled=False)
        server = cluster.servers[0]
        fp, other_fp = fingerprint_of(ROOT_ID, "q"), fingerprint_of(ROOT_ID, "r")
        other = server._changelog_lock(other_fp)
        assert other.acquire_read() is None
        inode = server._inode_lock(file_meta_key(ROOT_ID, "q"))
        assert inode.acquire_write() is None
        entry = ChangeLogEntry(1.0, ChangeOp.CREATE, "q")
        logged = server.wal.appends
        for held in ([], [(inode, "w")], [(inode, "w"), (other, "r")]):
            append = server._finish_async_update(None, fp, ROOT_ID, entry, held)
            with pytest.raises(SimulationError, match="without its change-log lock"):
                next(append)
        assert server.wal.appends == logged
        assert server.pending_changelog_entries() == 0


class TestUnlockTokenLifecycle:
    """Characterization: deferred-unlock tokens drain and locks release."""

    @pytest.mark.parametrize(
        "mode",
        [
            {},  # async updates, stale set in the switch: unlock by token
            {"stale_backend": "server"},  # async, inline stale-set RPC
            {"async_updates": False, "recast": False},  # synchronous baseline
        ],
        ids=["switch", "server", "sync"],
    )
    def test_custody_released(self, mode):
        """Whatever the outcome and whoever ended up holding the locks —
        the handler's ``finally`` or an unlock token — a finished op leaves
        no token, lock, mutator count or group block behind."""
        cluster = make(proactive_enabled=False, **mode)
        fs, other = cluster.client(0), cluster.client(1)
        steps = [(fs.mkdir("/d"), None), (fs.mkdir("/gone"), None)]
        steps += [(fs.create(f"/d/f{i}"), None) for i in range(4)]
        steps += [
            (fs.create("/d/f0"), "EEXIST"),
            (fs.mkdir("/d"), "EEXIST"),
            (fs.delete("/d/nope"), "ENOENT"),
            (fs.rmdir("/d"), "ENOTEMPTY"),
            (other.statdir("/gone"), None),  # caches /gone at the other client
            (fs.rmdir("/gone"), None),
            (other.rmdir("/gone"), "ENOENT"),  # reaches the server: stale cache
        ]
        steps += [(fs.delete(f"/d/f{i}"), None) for i in range(4)]
        steps += [(fs.rmdir("/d"), None)]
        for op, error in steps:
            if error is None:
                cluster.run_op(op)
            else:
                with pytest.raises(FSError) as failure:
                    cluster.run_op(op)
                assert failure.value.code == error
            for server in cluster.servers:
                assert not server._pending_unlocks
                assert server._inflight_mutators == 0
                assert not server._group_blocks
                # Nothing is held or waited on, so the tables are empty.
                assert not server._inode_locks and not server._changelog_locks

    def test_release_returns_true_then_false(self):
        from repro.sim import RWLock

        cluster = make(proactive_enabled=False)
        server = cluster.servers[0]
        lock = RWLock(cluster.sim)
        cluster.sim.run_process(cluster.sim.spawn(_acquire(lock), name="acq"))
        log = server.changelogs.log_for(3, fingerprint_of(ROOT_ID, "q"))
        server._pending_unlocks[123] = {
            "locks": [(lock, "w")], "log": log,
            "entry": ChangeLogEntry(1.0, ChangeOp.CREATE, "q"), "lsn": 0,
        }
        assert server.release_unlock_token(123, applied_sync=False) is True
        assert not lock.write_locked  # the deferred unlock released it
        # A duplicate (the other multicast copy) is refused, so exactly
        # one copy is consumed per token.
        assert server.release_unlock_token(123, applied_sync=False) is False
