"""Open-loop client-population engine (DESIGN.md §16).

Covers the three tentpole invariants: seeded determinism (bit-identical
arrival sequences, latency buckets, and user-table columns), the
one-draw-per-arrival lockstep property (arrival *times* independent of
the population size at a fixed offered load), and the K=1 equivalence
oracle against the legacy closed-loop harness.
"""

import weakref

import pytest

from repro.bench import run_stream
from repro.core import FSConfig, SwitchFSCluster
from repro.sim import LatencyRecorder
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
    """Drive one PopulationClient directly; returns it for inspection."""
    cluster = _cluster()
    ns = bootstrap(cluster, single_large_directory(16), warm_clients=[0])
    stream = FixedOpStream("stat", ns, seed=5, dir_choice="single")
    pc = PopulationClient(
        "pop0",
        cluster.client(0),
        stream,
        UserTable(users),
        load,
        seed=seed,
        latency=LatencyRecorder(),
        record_arrivals=True,
    )
    sim = cluster.sim
    sim.run_process(sim.spawn(pc.drive(ops)))
    return pc


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
        t = UserTable(100)
        assert len(t.ops_done) == len(t.lat_sum) == len(t.epoch_seen) == 100
        assert not any(t.ops_done) and not any(t.lat_sum)
        assert t.active_users() == 0 and t.top_user_share() == 0.0

    def test_rank_zero_is_hottest(self):
        t = UserTable(50, theta=0.99)
        assert t.weights[0] == max(t.weights)
        assert list(t.weights) == sorted(t.weights, reverse=True)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            UserTable(0)

    def test_activity_columns_shared_mutable_columns_private(self):
        a, b = UserTable(5_000, 0.99), UserTable(5_000, 0.99)
        assert a.weights is b.weights and a.alias is b.alias
        for column in ("ops_done", "lat_sum", "epoch_seen"):
            assert getattr(a, column) is not getattr(b, column)
        a.ops_done[7] += 1
        assert b.ops_done[7] == 0 and a.active_users() == 1 and b.active_users() == 0
        # Another size or skew is another table, with its own columns.
        assert UserTable(5_001, 0.99).alias is not a.alias
        assert UserTable(5_000, 0.5).weights is not a.weights

    def test_shared_columns_die_with_their_last_table(self):
        a = UserTable(5_000, 0.75)
        alias = weakref.ref(a.alias)
        b = UserTable(5_000, 0.75)
        del a
        assert alias() is b.alias
        del b
        assert alias() is None


class TestDeterminism:
    def test_same_seed_bit_identical_run(self):
        r1, r2 = _fanin_once(), _fanin_once()
        assert r1.sim_elapsed_us == r2.sim_elapsed_us
        assert list(r1.latency.bucket("pop0")) == list(r2.latency.bucket("pop0"))
        assert list(r1.latency.bucket("pop1")) == list(r2.latency.bucket("pop1"))
        assert list(r1.latency.bucket("all")) == list(r2.latency.bucket("all"))
        assert r1.populations == r2.populations

    def test_same_seed_bit_identical_user_columns(self):
        p1, p2 = _drive_population(2_000), _drive_population(2_000)
        assert p1.users.ops_done.tobytes() == p2.users.ops_done.tobytes()
        assert p1.users.lat_sum.tobytes() == p2.users.lat_sum.tobytes()
        assert p1.arrival_log == p2.arrival_log

    def test_arrival_times_independent_of_population_size(self):
        # One arrival consumes exactly two uniforms (gap + user) through
        # the alias table, so at a fixed offered load the arrival *time*
        # sequence is bit-identical whether the aggregate carries 10
        # users or 10,000 — only the sampled uids differ.
        small = _drive_population(10)
        large = _drive_population(10_000)
        assert [t for t, _ in small.arrival_log] == [
            t for t, _ in large.arrival_log
        ]
        assert any(
            u1 != u2
            for (_, u1), (_, u2) in zip(small.arrival_log, large.arrival_log)
        )

    def test_different_seeds_diverge(self):
        a, b = _drive_population(100, seed=1), _drive_population(100, seed=2)
        assert a.arrival_log != b.arrival_log


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
        make = lambda a: FixedOpStream("stat", ns, seed=5, dir_choice="single")
        with pytest.raises(ValueError):
            run_fanin(cluster, make, users=10, offered_load_ops=1e5,
                      total_ops=10, aggregates=0)
        with pytest.raises(ValueError):
            run_fanin(cluster, make, users=1, offered_load_ops=1e5,
                      total_ops=10, aggregates=2)
        with pytest.raises(ValueError):
            run_fanin(cluster, make, users=10, offered_load_ops=1e5,
                      total_ops=5, warmup_ops=5)
        with pytest.raises(ValueError):
            PopulationClient(
                "p", cluster.client(0), make(0), UserTable(1), 0.0,
                seed=1, latency=LatencyRecorder(),
            )

    def test_warmup_excludes_early_samples(self):
        cluster = _cluster()
        ns = bootstrap(cluster, single_large_directory(16), warm_clients=[0])
        result = run_fanin(
            cluster,
            lambda a: FixedOpStream("stat", ns, seed=5, dir_choice="single"),
            users=100,
            offered_load_ops=100_000.0,
            total_ops=200,
            warmup_ops=50,
        )
        assert result.ops_completed == 150
        assert len(result.latency.bucket("all")) == 150

    @pytest.mark.parametrize("cache", [True, False])
    def test_switch_cache_window_is_reported(self, cache):
        """The open-loop driver fills ``RunResult.switch_cache`` and the
        switch-served-reply buckets for its window, as run_stream does."""
        # Eight cache lines under 64 files: hits and misses both occur.
        cluster = SwitchFSCluster(FSConfig(
            num_servers=2, seed=3, switch_cache=cache,
            switch_cache_stages=1, switch_cache_index_bits=3,
        ))
        ns = bootstrap(cluster, single_large_directory(64), warm_clients=[0, 1])
        result = run_fanin(
            cluster,
            lambda a: FixedOpStream("stat", ns, seed=5 + a, dir_choice="single"),
            users=1_000,
            offered_load_ops=120_000.0,
            total_ops=400,
            aggregates=2,
            warmup_ops=100,
            seed=7,
        )
        latency = result.latency
        assert latency.count("all") == 300
        if not cache:
            assert result.switch_cache == {}
            assert result.switch_cache_hit_rate == 0.0
            assert set(latency.ops()) == {"all", "pop0", "pop1"}
            return
        counts = result.switch_cache
        assert counts["hits"] > 0 and counts["misses"] > 0
        assert 0.0 < result.switch_cache_hit_rate <= 1.0
        # One probe per stat: the 100 warm-up stats are in neither the
        # counters nor the buckets (give or take the stats in flight when
        # the window opened, probed before it and answered inside it).
        assert abs(counts["hits"] + counts["misses"] - 300) <= result.inflight
        assert 0 < latency.count("switch_hit") <= counts["hits"] + result.inflight
        assert 0 < latency.count("switch_miss") <= counts["misses"] + result.inflight
        assert latency.count("switch_hit") + latency.count("switch_miss") == 300
