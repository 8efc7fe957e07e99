"""End-to-end tests for the in-switch hot-dentry cache (DESIGN.md §15).

The load-bearing properties: switch-served replies carry exactly the
value a server read would have returned, every mutation invalidates the
matching line before its reply departs (so no read ever observes a
pre-mutation cached value after the mutation completed), and switch
reboot / epoch cutover cold-start the cache without hurting correctness.
"""

import pytest

from repro.analysis import (
    SimTracer,
    instrument_server,
    lock_order_cycles,
    race_findings,
)
from repro.bench import make_cluster, run_stream, scaled_config
from repro.core import FSConfig, FSError, SwitchFSCluster
from repro.workloads import FixedOpStream, bootstrap, single_large_directory


def cache_cluster(seed=21, cache=True, **cfg):
    defaults = dict(
        num_servers=2,
        cores_per_server=2,
        seed=seed,
        switch_cache=cache,
        switch_cache_stages=2,
        switch_cache_index_bits=4,
    )
    defaults.update(cfg)
    return SwitchFSCluster(FSConfig(**defaults))


def populate(cluster, fs, n=6, d="/d"):
    cluster.run_op(fs.mkdir(d))
    for i in range(n):
        cluster.run_op(fs.create(f"{d}/f{i}"))


class TestSwitchServedReplies:
    def test_second_stat_served_from_switch(self):
        cluster = cache_cluster()
        fs = cluster.client(0)
        populate(cluster, fs)

        first = cluster.run_op(fs.stat("/d/f0"))  # miss -> FILL on return
        second = cluster.run_op(fs.stat("/d/f0"))  # hit at the switch
        assert second == first

        assert fs.counters.get("switch_cache_hits") >= 1
        assert fs.counters.get("switch_cache_misses") >= 1
        stats = cluster.switch_stats()
        assert stats.cache_hits >= 1
        assert stats.cache_fills >= 1
        assert stats.cache_occupancy > 0

    def test_hit_latency_bucketed_and_cheaper(self):
        cluster = cache_cluster()
        fs = cluster.client(0)
        populate(cluster, fs)
        cluster.run_op(fs.stat("/d/f0"))
        cluster.run_op(fs.stat("/d/f0"))
        hits = fs.switch_latency.bucket("switch_hit")
        misses = fs.switch_latency.bucket("switch_miss")
        assert len(hits) >= 1 and len(misses) >= 1
        # The switch turnaround skips the server entirely: strictly
        # faster than the miss that filled the line (deterministic sim).
        assert max(hits) < min(misses)

    def test_open_also_cache_eligible(self):
        cluster = cache_cluster()
        fs = cluster.client(0)
        populate(cluster, fs)
        cluster.run_op(fs.open("/d/f1"))
        cluster.run_op(fs.open("/d/f1"))
        assert fs.counters.get("switch_cache_hits") >= 1

    def test_disabled_cache_serves_nothing(self):
        cluster = cache_cluster(cache=False)
        fs = cluster.client(0)
        populate(cluster, fs)
        cluster.run_op(fs.stat("/d/f0"))
        cluster.run_op(fs.stat("/d/f0"))
        assert fs.counters.get("switch_cache_hits") == 0
        assert fs.counters.get("switch_cache_misses") == 0
        assert cluster.switch_stats().cache_capacity == 0


class TestCoherence:
    def test_delete_then_stat_is_enoent(self):
        """The EVICT departs before the delete's reply: once the delete
        completed, no stat may be served from the dead cached line."""
        cluster = cache_cluster()
        fs = cluster.client(0)
        populate(cluster, fs)
        cluster.run_op(fs.stat("/d/f2"))  # line cached
        cluster.run_op(fs.delete("/d/f2"))
        with pytest.raises(FSError):
            cluster.run_op(fs.stat("/d/f2"))

    def test_create_after_delete_serves_fresh_inode(self):
        cluster = cache_cluster()
        fs = cluster.client(0)
        populate(cluster, fs)
        cluster.run_op(fs.stat("/d/f3"))
        cluster.run_op(fs.delete("/d/f3"))
        cluster.run_op(fs.create("/d/f3", perm=0o600))
        value = cluster.run_op(fs.stat("/d/f3"))
        assert value["perm"] == 0o600  # not the cached pre-delete inode

    def test_rename_invalidates_both_names(self):
        """The 2PC commit evicts every mutated (pid, name): the old name
        must stop resolving and the new name must serve the moved inode."""
        cluster = cache_cluster()
        fs = cluster.client(0)
        populate(cluster, fs)
        cluster.run_op(fs.stat("/d/f4"))  # old name cached
        cluster.run_op(fs.rename("/d/f4", "/d/g4"))
        with pytest.raises(FSError):
            cluster.run_op(fs.stat("/d/f4"))
        assert cluster.run_op(fs.stat("/d/g4"))["name"] == "g4"

    def test_rmdir_invalidates_dir_lookup_line(self):
        cluster = cache_cluster()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/gone"))
        # A fresh client resolves /gone over the network (LOOKUP + FILL);
        # client 0's own dentry cache would mask the switch's.
        other = cluster.client(1)
        cluster.run_op(other.statdir("/gone"))
        cluster.run_op(fs.rmdir("/gone"))
        third = cluster.client(2)
        with pytest.raises(FSError):
            cluster.run_op(third.statdir("/gone"))


class TestNamespaceEquivalence:
    OPS = 40

    @staticmethod
    def _drive(cluster):
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/ns"))
        for i in range(12):
            cluster.run_op(fs.create(f"/ns/f{i}"))
        for i in range(12):
            cluster.run_op(fs.stat(f"/ns/f{i}"))
            cluster.run_op(fs.stat(f"/ns/f{i % 4}"))  # hot subset
        for i in range(0, 12, 3):
            cluster.run_op(fs.delete(f"/ns/f{i}"))
        cluster.run_op(fs.create("/ns/extra"))
        cluster.run_op(fs.rename("/ns/extra", "/ns/renamed"))
        cluster.run_op(fs.rename("/ns/f1", "/ns/moved"))
        cluster.run_op(fs.stat("/ns/moved"))
        cluster.settle()
        return fs

    @classmethod
    def _snapshot(cls, cluster, fs):
        """Structural namespace state: listings, counts, and per-file
        attributes that are timing-independent (mtimes differ between a
        cached and an uncached run because virtual time diverges)."""
        listing = sorted(cluster.run_op(fs.readdir("/ns"))["entries"])
        count = cluster.run_op(fs.statdir("/ns"))["entry_count"]
        stats = {}
        for name in listing:
            v = cluster.run_op(fs.stat(f"/ns/{name}"))
            stats[name] = (v["pid"], v["name"], v["perm"], v["size"])
        return listing, count, stats

    def test_cached_run_equals_uncached_run(self):
        cached = cache_cluster(seed=33, cache=True)
        fs_cached = self._drive(cached)
        plain = cache_cluster(seed=33, cache=False)
        fs_plain = self._drive(plain)
        assert self._snapshot(cached, fs_cached) == self._snapshot(plain, fs_plain)
        # The cached run really exercised the cache datapath.
        assert cached.switch_stats().cache_hits > 0
        assert plain.switch_stats().cache_capacity == 0


class TestLifecycle:
    def test_switch_reboot_cold_starts_cache(self):
        cluster = cache_cluster(num_servers=4)
        fs = cluster.client(0)
        populate(cluster, fs)
        cluster.run_op(fs.stat("/d/f0"))
        assert cluster.switch_stats().cache_occupancy > 0
        cluster.fail_switch()
        assert cluster.switch_stats().cache_occupancy == 0
        # Post-recovery the namespace is intact and the cache refills.
        value = cluster.run_op(fs.stat("/d/f0"))
        assert value["name"] == "f0"
        cluster.run_op(fs.stat("/d/f0"))
        assert cluster.switch_stats().cache_occupancy > 0
        assert fs.counters.get("switch_cache_hits") >= 1

    def test_epoch_cutover_flushes_cache(self):
        cluster = cache_cluster()
        fs = cluster.client(0)
        populate(cluster, fs)
        cluster.run_op(fs.stat("/d/f0"))
        cluster.run_op(fs.stat("/d/f1"))
        assert cluster.switch_stats().cache_occupancy > 0
        up = cluster.run_op(cluster.scale_up_gen())
        assert up["epoch"] == 1
        # apply_epoch flushed every line: replies cached under the old
        # epoch may name outgoing owners.
        assert cluster.switch_stats().cache_occupancy == 0
        # The namespace survives and the cache refills under the new view.
        for i in range(6):
            v = cluster.run_op(fs.stat(f"/d/f{i}"))
            assert v["name"] == f"f{i}"
        cluster.run_op(fs.stat("/d/f0"))
        assert cluster.switch_stats().cache_occupancy > 0

    def test_traced_cache_run_has_no_cycles_or_races(self):
        cluster = cache_cluster(num_servers=3, seed=13)
        tracer = SimTracer(capture_stacks=False)
        tracer.attach(cluster.sim)
        for server in cluster.servers:
            instrument_server(tracer, server)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/t"))
        for i in range(10):
            cluster.run_op(fs.create(f"/t/f{i}"))
        for i in range(10):
            cluster.run_op(fs.stat(f"/t/f{i}"))  # fills
            cluster.run_op(fs.stat(f"/t/f{i}"))  # hits
        for i in range(0, 10, 2):
            cluster.run_op(fs.delete(f"/t/f{i}"))  # evicts
        cluster.settle()
        tracer.detach()
        assert cluster.switch_stats().cache_hits > 0
        assert cluster.switch_stats().cache_evictions > 0
        assert tracer.lock_events
        assert lock_order_cycles(tracer) == []
        assert race_findings(tracer) == []


class TestStatHotspotWin:
    """Fig 11-style acceptance point: cache+stale-set must beat
    stale-set-only on the read/stat-heavy hotspot (virtual time, so the
    comparison is deterministic)."""

    @staticmethod
    def _run(cache):
        overrides = (
            dict(switch_cache=True, switch_cache_stages=4, switch_cache_index_bits=10)
            if cache
            else {}
        )
        cluster = make_cluster(
            "SwitchFS", scaled_config(num_servers=2, seed=17, **overrides)
        )
        pop = bootstrap(cluster, single_large_directory(64), warm_clients=[0])
        stream = FixedOpStream("stat", pop, seed=17, dir_choice="single")
        return run_stream(cluster, stream, total_ops=400, inflight=16, op_label="stat")

    def test_cache_beats_stale_set_only_on_stat_hotspot(self):
        on = self._run(cache=True)
        off = self._run(cache=False)
        assert on.switch_cache_hit_rate > 0.5
        assert off.switch_cache == {}
        assert on.throughput_kops > off.throughput_kops
        assert on.mean_latency_us < off.mean_latency_us
        # The latency split shows where the win comes from.
        hit_samples = on.latency.bucket("switch_hit")
        miss_samples = on.latency.bucket("switch_miss")
        assert len(hit_samples) + len(miss_samples) == 400
        assert max(hit_samples) < min(miss_samples)
