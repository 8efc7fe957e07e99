"""Open-loop client-population engine (DESIGN.md §16).

Covers the three tentpole invariants: seeded determinism (bit-identical
arrival sequences, latency buckets, and per-user state), the
one-draw-per-arrival lockstep property (arrival *times* independent of
the population size at a fixed offered load), and the K=1 equivalence
oracle against the legacy closed-loop harness; plus a differential of
the sparse user table against the dense per-user columns it replaced.
"""

import weakref
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import run_stream
from repro.bench.harness import MeasurementWindow
from repro.core import FSConfig, SwitchFSCluster
from repro.sim import Simulator, make_rng
from repro.workloads import (
    FixedOpStream,
    PopulationClient,
    UserTable,
    bootstrap,
    run_fanin,
    single_large_directory,
)


def _cluster(seed=3, num_servers=2):
    return SwitchFSCluster(FSConfig(num_servers=num_servers, seed=seed))


def _drive_population(users, ops=150, load=100_000.0, seed=7):
    """Drive one PopulationClient directly.

    Returns the client and its arrivals as ``(time, uid)`` pairs, observed
    by wrapping ``UserTable.sample`` (the uid) and the stream's ``take``
    (called at the arrival's instant, right after the uid is drawn).
    """
    cluster = _cluster()
    sim = cluster.sim
    ns = bootstrap(cluster, single_large_directory(16), warm_clients=[0])
    stream = FixedOpStream("stat", ns, seed=5, dir_choice="single")
    uids, times = [], []
    sample, take = UserTable.sample, stream.take

    def recording_sample(table, rng):
        uids.append(sample(table, rng))
        return uids[-1]

    def recording_take():
        times.append(sim.now)
        return take()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(UserTable, "sample", recording_sample)
        mp.setattr(stream, "take", recording_take)
        pc = PopulationClient(
            "pop0",
            cluster.client(0),
            stream,
            UserTable(users),
            load,
            seed=seed,
            window=MeasurementWindow(cluster, 1, ops),
        )
        sim.run_process(sim.spawn(pc.drive(ops)))
    assert len(uids) == len(times) == ops
    return pc, list(zip(times, uids))


def _fanin_once(seed=7):
    cluster = _cluster()
    ns = bootstrap(cluster, single_large_directory(16), warm_clients=[0, 1])
    result = run_fanin(
        cluster,
        lambda a: FixedOpStream("stat", ns, seed=5 + a, dir_choice="single"),
        users=1_000,
        offered_load_ops=120_000.0,
        total_ops=300,
        aggregates=2,
        seed=seed,
    )
    return result


def _namespace(cluster, fs, dirs):
    """Logical namespace snapshot: per-directory listing + entry count."""
    snap = {}
    for d in dirs:
        listing = cluster.run_op(fs.readdir(d))
        info = cluster.run_op(fs.statdir(d))
        snap[d] = (sorted(listing["entries"]), info["entry_count"])
    return snap


class TestUserTable:
    def test_columns_sized_and_zeroed(self):
        # A fresh table holds no user: per-user state starts empty and
        # grows only with the users who arrive; the Zipf table is n long.
        t = UserTable(100)
        assert t.n == 100 and len(t.cdf) == 100
        assert not t.ops_done and not t.epoch_seen
        assert t.active_users() == 0 and t.top_user_share() == 0.0
        rng = make_rng(1, "users")
        assert {t.sample(rng) for _ in range(2_000)} <= set(range(100))

    def test_rank_zero_is_hottest(self):
        t = UserTable(50, theta=0.99)
        rng = make_rng(2, "users")
        counts = [0] * 50
        for _ in range(20_000):
            counts[t.sample(rng)] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 5 * counts[-1]
        assert sum(counts[:25]) > 2 * sum(counts[25:])

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            UserTable(0)

    def test_activity_columns_shared_mutable_columns_private(self):
        a, b = UserTable(5_000, 0.99), UserTable(5_000, 0.99)
        assert a.cdf is b.cdf
        # Sharing cannot change a draw: sampling reads the table and
        # advances only the caller's rng.
        ra, rb = make_rng(3, "users"), make_rng(3, "users")
        assert [a.sample(ra) for _ in range(200)] == [b.sample(rb) for _ in range(200)]
        # Per-user state is each table's own.
        assert a.ops_done is not b.ops_done and a.epoch_seen is not b.epoch_seen
        a.ops_done[7] = 1
        assert a.active_users() == 1 and b.active_users() == 0
        assert a.top_user_share() == 1.0 and b.top_user_share() == 0.0
        # Another size or skew is another table.
        assert UserTable(5_001, 0.99).cdf is not a.cdf
        assert UserTable(5_000, 0.5).cdf is not a.cdf

    def test_shared_columns_die_with_their_last_table(self):
        a = UserTable(5_000, 0.75)
        cdf = weakref.ref(a.cdf)
        b = UserTable(5_000, 0.75)
        del a
        assert cdf() is b.cdf
        del b
        assert cdf() is None


class _DenseReference:
    """The dense bookkeeping the sparse table replaced: one cell per user,
    the epoch column filled with the view epoch when the client is built."""

    def __init__(self, n, epoch):
        self.ops_done = [0] * n
        self.epoch_seen = [epoch] * n
        self.epoch_catchups = 0

    def complete(self, uid, epoch):
        self.ops_done[uid] += 1
        if self.epoch_seen[uid] != epoch:
            self.epoch_seen[uid] = epoch
            self.epoch_catchups += 1

    def active_users(self):
        return len(self.ops_done) - self.ops_done.count(0)

    def top_user_share(self):
        total = sum(self.ops_done)
        return max(self.ops_done) / total if total else 0.0


class TestSparseTableDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        start_epoch=st.integers(min_value=0, max_value=3),
        steps=st.lists(
            st.tuples(st.integers(min_value=0, max_value=10**6), st.booleans()),
            max_size=60,
        ),
    )
    @example(n=3, start_epoch=2, steps=[(0, False), (1, True), (0, False), (0, True)])
    def test_matches_dense_reference(self, n, start_epoch, steps):
        # Completions run through the real PopulationClient._op over a
        # stub LibFS whose view epoch the steps bump; the client may be
        # built at a non-zero epoch.
        fs = SimpleNamespace(sim=Simulator(), view_epoch=start_epoch)
        window = SimpleNamespace(
            latency=SimpleNamespace(bucket=lambda name: []), done=lambda t0: 0.0
        )
        users = UserTable(n)
        pc = PopulationClient("pop0", fs, None, users, 1.0, seed=1, window=window)
        ref = _DenseReference(n, start_epoch)
        for raw_uid, bump in steps:
            uid = raw_uid % n
            if bump:
                fs.view_epoch += 1
            for _ in pc._op(uid, lambda fs: iter(())):
                pass
            ref.complete(uid, fs.view_epoch)
            assert users.active_users() == ref.active_users()
            assert users.top_user_share() == ref.top_user_share()
            assert pc.epoch_catchups == ref.epoch_catchups
        assert {u: c for u, c in enumerate(ref.ops_done) if c} == users.ops_done


class TestDeterminism:
    def test_same_seed_bit_identical_run(self):
        r1, r2 = _fanin_once(), _fanin_once()
        assert r1.sim_elapsed_us == r2.sim_elapsed_us
        assert list(r1.latency.bucket("pop0")) == list(r2.latency.bucket("pop0"))
        assert list(r1.latency.bucket("pop1")) == list(r2.latency.bucket("pop1"))
        assert list(r1.latency.bucket("all")) == list(r2.latency.bucket("all"))
        assert r1.populations == r2.populations

    def test_same_seed_bit_identical_user_columns(self):
        (p1, arrivals1), (p2, arrivals2) = _drive_population(2_000), _drive_population(2_000)
        # Same users, same counts, recorded in the same order.
        assert list(p1.users.ops_done.items()) == list(p2.users.ops_done.items())
        assert sum(p1.users.ops_done.values()) == 150
        assert p1.users.epoch_seen == p2.users.epoch_seen == {}
        assert arrivals1 == arrivals2

    def test_arrival_times_independent_of_population_size(self):
        # One arrival consumes exactly two uniforms (gap + user) through
        # the inverse-CDF draw, so at a fixed offered load the arrival
        # *time* sequence is bit-identical whether the aggregate carries 10
        # users or 10,000 — only the sampled uids differ.
        _, small = _drive_population(10)
        _, large = _drive_population(10_000)
        assert [t for t, _ in small] == [t for t, _ in large]
        assert any(u1 != u2 for (_, u1), (_, u2) in zip(small, large))

    def test_different_seeds_diverge(self):
        (_, a), (_, b) = _drive_population(100, seed=1), _drive_population(100, seed=2)
        assert a != b


class TestEquivalenceOracle:
    def test_k1_population_matches_legacy_closed_loop(self):
        # A single-user open-loop population and the legacy one-worker
        # closed loop consume the same seeded op stream, so both runs
        # must leave the namespace in the same end state.
        total = 60

        legacy_cluster = _cluster(seed=9)
        legacy_ns = bootstrap(
            legacy_cluster, single_large_directory(8), warm_clients=[0]
        )
        legacy_stream = FixedOpStream(
            "create", legacy_ns, seed=5, dir_choice="single"
        )
        run_stream(legacy_cluster, legacy_stream, total_ops=total, inflight=1)
        legacy_cluster.settle()

        fanin_cluster = _cluster(seed=9)
        fanin_ns = bootstrap(
            fanin_cluster, single_large_directory(8), warm_clients=[0]
        )
        run_fanin(
            fanin_cluster,
            lambda a: FixedOpStream("create", fanin_ns, seed=5, dir_choice="single"),
            users=1,
            offered_load_ops=50_000.0,
            total_ops=total,
            aggregates=1,
        )
        fanin_cluster.settle()

        dirs = legacy_ns.dir_paths
        assert _namespace(
            legacy_cluster, legacy_cluster.client(0), dirs
        ) == _namespace(fanin_cluster, fanin_cluster.client(0), dirs)


class TestScaleUpMidRun:
    def test_epoch_catchups_counted_across_join(self):
        cluster = _cluster(seed=4)
        ns = bootstrap(cluster, single_large_directory(24), warm_clients=[0])
        sim = cluster.sim
        events = {}

        def controller():
            yield sim.timeout(1_000.0)
            events["up"] = yield from cluster.scale_up_gen()

        result = run_fanin(
            cluster,
            lambda a: FixedOpStream("stat", ns, seed=5, dir_choice="single"),
            users=500,
            offered_load_ops=100_000.0,
            total_ops=400,
            aggregates=1,
            seed=7,
            extra_procs=[controller()],
        )
        assert result.ops_completed == 400
        assert events["up"]["epoch"] >= 1
        # Users completing their first op after the join roll their
        # logical cache epoch forward exactly once each.
        catchups = sum(p["epoch_catchups"] for p in result.populations.values())
        assert 0 < catchups <= 500


class TestRunFanin:
    def test_population_summaries_partition_the_run(self):
        result = _fanin_once()
        pops = result.populations
        assert set(pops) == {"pop0", "pop1"}
        assert sum(p["users"] for p in pops.values()) == 1_000
        assert sum(p["ops_completed"] for p in pops.values()) == 300
        total_load = sum(p["offered_load_ops"] for p in pops.values())
        assert total_load == pytest.approx(120_000.0)
        for p in pops.values():
            assert p["peak_inflight"] >= 1
            assert 0 < p["active_users"] <= p["users"]
            assert 0.0 < p["top_user_share"] <= 1.0
            assert p["p99_latency_us"] >= p["p50_latency_us"] > 0

    def test_validation(self):
        cluster = _cluster()
        ns = bootstrap(cluster, single_large_directory(8), warm_clients=[0])

        def make(a):
            return FixedOpStream("stat", ns, seed=5, dir_choice="single")

        with pytest.raises(ValueError):
            run_fanin(cluster, make, users=10, offered_load_ops=1e5,
                      total_ops=10, aggregates=0)
        with pytest.raises(ValueError):
            run_fanin(cluster, make, users=1, offered_load_ops=1e5,
                      total_ops=10, aggregates=2)
        with pytest.raises(ValueError):
            run_fanin(cluster, make, users=10, offered_load_ops=1e5,
                      total_ops=0)
        with pytest.raises(ValueError):
            PopulationClient(
                "p", cluster.client(0), make(0), UserTable(1), 0.0,
                seed=1, window=MeasurementWindow(cluster, 1, 1),
            )

    def test_warmup_excludes_early_samples(self):
        # A warm-up call is not in the next call's result.
        cluster = _cluster()
        ns = bootstrap(cluster, single_large_directory(16), warm_clients=[0])
        stream = FixedOpStream("stat", ns, seed=5, dir_choice="single")

        def call(total_ops):
            return run_fanin(cluster, lambda a: stream, users=100,
                             offered_load_ops=100_000.0, total_ops=total_ops)

        call(50)
        result = call(150)
        assert result.ops_completed == 150
        assert len(result.latency.bucket("all")) == 150
        assert result.populations["pop0"]["ops_completed"] == 150

    @pytest.mark.parametrize("cache", [True, False])
    def test_switch_cache_window_is_reported(self, cache):
        """Both drivers fill ``RunResult.switch_cache`` and the
        switch-served-reply buckets for their window only."""

        def fanin(cluster, ns, total_ops):
            return run_fanin(
                cluster,
                lambda a: FixedOpStream("stat", ns, seed=5 + a, dir_choice="single"),
                users=1_000,
                offered_load_ops=120_000.0,
                total_ops=total_ops,
                aggregates=2,
                seed=7,
            )

        def stream(cluster, ns, total_ops):
            ops = FixedOpStream("stat", ns, seed=5, dir_choice="single")
            return run_stream(cluster, ops, total_ops=total_ops, inflight=16)

        for drive, buckets in ((fanin, {"all", "pop0", "pop1"}),
                               (stream, {"all", "stat"})):
            # Eight cache lines under 64 files: hits and misses both occur.
            cluster = SwitchFSCluster(FSConfig(
                num_servers=2, seed=3, switch_cache=cache,
                switch_cache_stages=1, switch_cache_index_bits=3,
            ))
            ns = bootstrap(cluster, single_large_directory(64), warm_clients=[0, 1])
            drive(cluster, ns, 100)  # the warm-up call
            result = drive(cluster, ns, 300)
            latency = result.latency
            assert latency.count("all") == 300
            if not cache:
                assert result.switch_cache == {}
                assert result.switch_cache_hit_rate == 0.0
                assert set(latency.ops()) == buckets
                continue
            counts = result.switch_cache
            assert counts["hits"] > 0 and counts["misses"] > 0
            assert 0.0 < result.switch_cache_hit_rate <= 1.0
            # One probe per stat: the warm-up call's 100 stats finished
            # before the window opened, so they are in neither the
            # counters nor the buckets.
            assert counts["hits"] + counts["misses"] == 300
            assert latency.count("switch_hit") == counts["hits"]
            assert latency.count("switch_miss") == counts["misses"]
