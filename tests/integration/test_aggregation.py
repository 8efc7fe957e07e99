"""Aggregation machinery: stale set interplay, proactive pushes, fallback."""

from repro.core import (
    ChangeLogEntry,
    ChangeOp,
    FSConfig,
    SwitchFSCluster,
    dir_entry_key,
    fingerprint_of,
    ROOT_ID,
)
from repro.bench import make_cluster, run_stream, scaled_config
from repro.core.changelog import ChangeLog
from repro.core.server.changelog_engine import IDLE_PUSH_US
from repro.workloads import FixedOpStream, Population, bootstrap


def make(**overrides):
    defaults = dict(num_servers=4, cores_per_server=2, seed=3)
    defaults.update(overrides)
    return SwitchFSCluster(FSConfig(**defaults))


class TestStaleSetInterplay:
    def test_create_marks_parent_scattered(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        fp = fingerprint_of(ROOT_ID, "d")
        cluster.run_op(fs.create("/d/f"))
        assert cluster.switch.stale_set.query(fp)

    def test_statdir_clears_scattered_state(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        fp = fingerprint_of(ROOT_ID, "d")
        cluster.run_op(fs.create("/d/f"))
        cluster.run_op(fs.statdir("/d"))
        cluster.run(until=cluster.sim.now + 1_000)  # let the REMOVE land
        assert not cluster.switch.stale_set.query(fp)

    def test_normal_statdir_needs_no_aggregation(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.statdir("/d"))  # clears the mkdir scatter on root? no: /d itself is fresh
        owner = cluster.server_by_addr(
            cluster.membership.current.dir_owner_by_fp(fingerprint_of(ROOT_ID, "d"))
        )
        before = owner.counters.get("aggregations")
        cluster.run_op(fs.statdir("/d"))
        assert owner.counters.get("aggregations") == before

    def test_changelog_entries_parked_until_read(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(5):
            cluster.run_op(fs.create(f"/d/f{i}"))
        assert cluster.total_pending_entries() > 0
        cluster.run_op(fs.readdir("/d"))
        cluster.run_op(fs.statdir("/"))  # flush the mkdir's entry on root
        cluster.run(until=cluster.sim.now + 1_000)
        assert cluster.total_pending_entries() == 0


class TestProactiveAggregation:
    def test_push_threshold_triggers_aggregation(self):
        cluster = make(proactive_push_entries=5)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(30):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.settle()
        assert cluster.total_pending_entries() == 0
        # Nothing read a directory, so every aggregation was proactive.
        aggs = sum(s.counters.get("aggregations") for s in cluster.servers)
        assert aggs >= 1

    def test_idle_push_flushes_small_logs(self):
        cluster = make(proactive_push_entries=1000)  # threshold never reached
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/only"))
        cluster.run(until=cluster.sim.now + IDLE_PUSH_US / 2)
        assert cluster.total_pending_entries() > 0  # not idle long enough yet
        cluster.run(until=cluster.sim.now + 4 * IDLE_PUSH_US)
        assert cluster.total_pending_entries() == 0

    def test_an_idle_log_queues_one_push_behind_a_held_lock(self):
        """A group's change-log lock held for ten idle intervals over an
        idle, non-empty log that another server owns: every sweep finds
        the log idle, but only the first spawns a push, which waits for
        the lock and delivers once it is free."""
        cluster = make(proactive_push_entries=1000)  # threshold never reached
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        fp = fingerprint_of(ROOT_ID, "d")
        view = cluster.membership.current
        server = next(s for s in cluster.servers if s.addr != view.dir_owner_by_fp(fp))
        # Only *server* logs entries for /d, so no other push starts a
        # round whose pull would queue on the held lock too.
        names = [f"f{i}" for i in range(64)]
        names = [n for n in names if view.file_owner(fs._cache["/d"].id, n) == server.addr][:3]
        for name in names:
            cluster.run_op(fs.create(f"/d/{name}"))
        waiting = []

        def hold():
            lock = yield from server._acquire(server._changelog_lock(fp), "w")
            yield cluster.sim.timeout(10 * IDLE_PUSH_US)
            waiting.append(lock.waiting)
            server._release(lock, "w")

        cluster.sim.run_process(cluster.sim.spawn(hold(), name="holder"))
        assert waiting == [1]
        cluster.settle()
        assert cluster.total_pending_entries() == 0
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == len(names) == 3

    def test_hot_directory_pushes_never_ship_empty(self, monkeypatch):
        """2 000 creates into one directory, 32 in flight, four servers:
        every push the MTU trigger starts drains a batch.  A pull drains
        only non-empty logs, so an empty drain is a push that found
        nothing to ship."""
        cluster = make_cluster("SwitchFS", scaled_config(num_servers=4, seed=17))
        population = bootstrap(
            cluster, Population(dirs=["shared"], files_per_dir=200), warm_clients=[0, 1]
        )
        drained = []
        drain = ChangeLog.drain

        def counted_drain(log):
            entries, lsns = drain(log)
            drained.append(len(entries))
            return entries, lsns

        monkeypatch.setattr(ChangeLog, "drain", counted_drain)
        stream = FixedOpStream("create", population, seed=17, dir_choice="single")
        result = run_stream(cluster, stream, 2000, inflight=32)
        assert result.sim_elapsed_us < IDLE_PUSH_US  # no log went idle
        assert sum(s.counters.get("proactive_pushes") for s in cluster.servers) > 0
        assert 0 not in drained

    def test_disabled_proactive_keeps_entries(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        cluster.run(until=cluster.sim.now + 50_000)
        assert cluster.total_pending_entries() > 0


class TestWalRetention:
    def test_a_round_leaves_nothing_to_replay(self):
        """Once a read's round has applied the group and its acks have
        landed, no server's WAL replays a change-log or "agg" record:
        applied records have let go of their payloads."""
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(6):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.run_op(fs.statdir("/d"))
        cluster.run_op(fs.statdir("/"))  # the mkdir's entry on root
        cluster.settle()
        kinds = [r.kind for s in cluster.servers for r in s.wal.replay()]
        assert kinds.count("changelog") == 0 and kinds.count("agg") == 0
        assert "txn" in kinds  # store records stay until a checkpoint


class TestOverflowFallback:
    def test_insert_overflow_falls_back_to_sync(self):
        # A 1x1 stale set overflows after two distinct set-index-0 groups.
        cluster = SwitchFSCluster(
            FSConfig(
                num_servers=4,
                cores_per_server=2,
                stale_stages=1,
                stale_index_bits=1,
                proactive_enabled=False,
            )
        )
        fs = cluster.client(0)
        # Enough distinct directories that inserts collide and overflow.
        for i in range(12):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
            cluster.run_op(fs.create(f"/dir{i}/f"))
        stats = cluster.switch_stats()
        assert stats.insert_overflows > 0
        fallbacks = sum(s.counters.get("sync_fallbacks") for s in cluster.servers)
        assert fallbacks > 0
        # Visibility must hold even for fallback-applied updates.
        for i in range(12):
            listing = cluster.run_op(fs.readdir(f"/dir{i}"))
            assert listing["entries"] == ["f"]

    def test_fallback_applies_exactly_once(self):
        cluster = SwitchFSCluster(
            FSConfig(
                num_servers=2,
                cores_per_server=2,
                stale_stages=1,
                stale_index_bits=1,
                proactive_enabled=False,
            )
        )
        fs = cluster.client(0)
        for i in range(10):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
            for j in range(3):
                cluster.run_op(fs.create(f"/dir{i}/f{j}"))
        for i in range(10):
            assert cluster.run_op(fs.statdir(f"/dir{i}"))["entry_count"] == 3

    def test_every_overflowed_mkdir_returns_what_it_made(self):
        """The fallback completes an op with the op's own reply, so an
        overflowed mkdir returns the id and fingerprint its client caches."""
        cluster = make(stale_stages=1, stale_index_bits=2)
        fs = cluster.client(0)
        paths = [f"/p{p}" for p in range(32)]
        paths += [f"/p{p}/c{c}" for p in range(32) for c in range(4)]
        made = [cluster.run_op(fs.mkdir(path)) for path in paths]
        assert cluster.switch_stats().insert_overflows == 116
        assert len(made) == 160 and all(r["status"] == "ok" for r in made)
        listing = cluster.run_op(fs.readdir("/p31"))
        assert sorted(listing["entries"]) == ["c0", "c1", "c2", "c3"]


class TestRecastBatchOrder:
    def test_batch_merged_out_of_order_applies_in_timestamp_order(self):
        """A pushed create and a later-pulled delete of one name can meet in
        one recast batch delete-first; the entry must stay deleted."""
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        dir_id = cluster.run_op(fs.statdir("/d"))["id"]
        owner = cluster.server_by_addr(
            cluster.membership.current.dir_owner_by_fp(fingerprint_of(ROOT_ID, "d"))
        )
        batch = [
            ChangeLogEntry(2.0, ChangeOp.DELETE, "x"),
            ChangeLogEntry(1.0, ChangeOp.CREATE, "x"),
        ]
        cluster.run_op(owner._apply_logs([(dir_id, batch, None)]))
        assert dir_entry_key(dir_id, "x") not in owner.kv
        listing = cluster.run_op(fs.readdir("/d"))
        assert listing["entries"] == [] and listing["entry_count"] == 0


class TestSwitchCounters:
    def test_queries_on_every_dir_read(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        q0 = cluster.switch_stats().queries
        cluster.run_op(fs.statdir("/d"))
        cluster.run_op(fs.readdir("/d"))
        assert cluster.switch_stats().queries >= q0 + 2

    def test_multicast_on_every_async_update(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        m0 = cluster.switch_stats().multicasts
        cluster.run_op(fs.create("/d/f"))
        assert cluster.switch_stats().multicasts == m0 + 1
