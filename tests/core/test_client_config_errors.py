"""Unit tests: path handling, client cache, config validation, errors."""

import pytest

from repro.core import (
    EEXIST,
    EINVALIDPATH,
    ENOENT,
    FSConfig,
    FSError,
    PerfModel,
    SwitchFSCluster,
    fs_error,
    split_path,
)
from repro.core.invalidation import InvalidationList


class TestSplitPath:
    def test_basic(self):
        assert split_path("/a/b/c") == ("/a/b", "c")

    def test_top_level(self):
        assert split_path("/file") == ("/", "file")

    def test_trailing_slash(self):
        assert split_path("/a/b/") == ("/a", "b")

    def test_root_rejected(self):
        with pytest.raises(ValueError):
            split_path("/")

    def test_relative_rejected(self):
        with pytest.raises(ValueError):
            split_path("a/b")


class TestErrors:
    def test_wire_roundtrip(self):
        # The wire carries str(exc): what the RPC layer sends for a raised
        # FSError, and what LibFS parses back.
        for err in (FSError(EEXIST, "/a/b"), FSError(ENOENT)):
            parsed = fs_error(str(err))
            assert (parsed.code, parsed.detail) == (err.code, err.detail)

    def test_unknown_code_becomes_eio(self):
        parsed = fs_error("rpc create to server-1 timed out")
        assert parsed.code == "EIO"

    def test_known_codes(self):
        for code in (EEXIST, ENOENT, EINVALIDPATH):
            assert fs_error(f"{code}: x").code == code


class TestConfig:
    def test_defaults_valid(self):
        cfg = FSConfig()
        assert cfg.num_servers >= 1
        assert cfg.server_addr(0) == "server-0"

    def test_invalid_servers(self):
        with pytest.raises(ValueError):
            FSConfig(num_servers=0)

    def test_recast_requires_async(self):
        with pytest.raises(ValueError):
            FSConfig(async_updates=False, recast=True)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            FSConfig(stale_backend="fpga")

    def test_server_addr_bounds(self):
        cfg = FSConfig(num_servers=2)
        with pytest.raises(ValueError):
            cfg.server_addr(2)

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (PerfModel, "rpc_timeout_us", 0.0),      # would retransmit in a zero-time loop
            (PerfModel, "rpc_timeout_us", -1.0),
            (PerfModel, "rpc_max_attempts", 0),      # would time out without sending
            (PerfModel, "kv_put_us", -4.0),          # negative CPU segment
            (PerfModel, "link_latency_us", -0.75),
            (FSConfig, "staleset_server_op_us", -1.0),  # a negative hold fails mid-run
            (FSConfig, "staleset_server_cores", 0),     # fails at cluster build
        ],
    )
    def test_bad_timing_rejected_up_front(self, cls, field, value):
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})

    def test_boundary_timing_accepted(self):
        FSConfig(stale_backend="server", staleset_server_cores=1, staleset_server_op_us=0.0)
        PerfModel(rpc_max_attempts=1, stack_multiplier=0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(stale_stages=0),
            dict(stale_index_bits=0),
            dict(stale_index_bits=60),
            dict(stale_index_bits=18),
            dict(switch_cache_stages=0),
            dict(switch_cache_index_bits=0),
            dict(switch_cache_index_bits=18),
        ],
    )
    def test_bad_table_geometry_rejected_up_front(self, bad):
        (field,) = bad
        with pytest.raises(ValueError, match=field.split("_")[0]):
            FSConfig(**bad)

    def test_one_index_bound_for_both_tables(self):
        # FINGERPRINT_BITS - TAG_BITS = 17 fingerprint bits above the tag.
        cfg = FSConfig(stale_index_bits=17, switch_cache_index_bits=17)
        assert cfg.stale_geometry.capacity == 10 << 17
        assert cfg.switch_cache_geometry.capacity == 4 << 17

    def test_perf_scaled(self):
        perf = PerfModel().scaled(3.0)
        assert perf.stack_multiplier == 3.0
        assert perf.path_check_us == PerfModel().path_check_us  # segments stay
        # scaled() composes.
        perf2 = perf.scaled(2.0)
        assert perf2.stack_multiplier == 6.0


class TestInvalidationList:
    def test_validate_empty(self):
        inval = InvalidationList()
        assert inval.validate([1, 2, 3])

    def test_insert_and_reject(self):
        inval = InvalidationList()
        inval.insert(2)
        assert not inval.validate([1, 2, 3])

    def test_discard_reverts_insert(self):
        inval = InvalidationList()
        inval.insert(42)
        assert not inval.validate([42])
        inval.discard(42)
        assert inval.validate([42])
        inval.discard(42)  # idempotent on absent ids
        assert inval.snapshot() == set()

    def test_snapshot_restore(self):
        a, b = InvalidationList(), InvalidationList()
        a.insert(5)
        b.restore(a.snapshot())
        assert not b.validate([5])
        a.insert(6)  # snapshot is a copy
        assert b.validate([6])


class TestClientCache:
    def make(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=3, cores_per_server=2, seed=8))
        return cluster, cluster.client(0)

    def test_cache_hit_after_first_resolution(self):
        cluster, fs = self.make()
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f1"))  # resolves /d, caches it
        misses_after_first = fs.counters.get("cache_misses")
        cluster.run_op(fs.create("/d/f2"))
        assert fs.counters.get("cache_misses") == misses_after_first

    def test_invalidate_path_prunes_subtree(self):
        cluster, fs = self.make()
        cluster.run_op(fs.mkdir("/a"))
        cluster.run_op(fs.mkdir("/a/b"))
        cluster.run_op(fs.create("/a/b/f"))
        assert "/a/b" in fs._cache
        fs.invalidate_path("/a")
        assert "/a" not in fs._cache
        assert "/a/b" not in fs._cache

    def test_dir_op_under_a_removed_cached_dir_answers_enoent(self):
        """A dir op under a cached directory another client removed is
        refused (EINVALIDPATH); the client drops the stale entry once,
        re-resolves, and answers ENOENT."""
        cluster, a = self.make()
        b = cluster.client(1)
        cluster.run_op(a.mkdir("/p"))
        cluster.run_op(a.mkdir("/p/q"))
        cluster.run_op(a.create("/p/q/f"))  # A caches /p/q
        cluster.run_op(b.delete("/p/q/f"))
        cluster.run_op(b.rmdir("/p/q"))
        with pytest.raises(FSError) as err:
            cluster.run_op(a.mkdir("/p/q/r"))
        assert err.value.code == ENOENT
        assert a.counters.get("cache_invalidations") == 1
        assert "/p/q" not in a._cache

    def test_lookup_missing_dir_enoent(self):
        cluster, fs = self.make()
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.statdir("/nope"))
        assert err.value.code == ENOENT

    def test_client_isolated_caches(self):
        cluster, fs0 = self.make()
        fs1 = cluster.client(1)
        cluster.run_op(fs0.mkdir("/d"))
        cluster.run_op(fs0.create("/d/f"))
        assert "/d" not in fs1._cache  # separate cache per client
        assert cluster.run_op(fs1.stat("/d/f"))["name"] == "f"
        assert "/d" in fs1._cache
