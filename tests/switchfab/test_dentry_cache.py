"""Unit tests for the in-switch hot-dentry cache (DESIGN.md §15)."""

import pytest

from repro.net import RpcResponse, StaleSetHeader, StaleSetOp, alloc_packet
from repro.switchfab import (
    DentryCache,
    ProgrammableSwitch,
    TableGeometry,
)

# Fingerprints sharing one cache set index (index_bits=2 below): the
# index is bits [32 : 32+index_bits], the tag is the low 32 bits.
FP_A = (0x0 << 32) | 0x1111
FP_B = (0x0 << 32) | 0x2222
FP_C = (0x0 << 32) | 0x3333
# Same tag as FP_A, different full fingerprint -> index/tag alias.
FP_A_ALIAS = (0x4 << 32) | 0x1111  # index (0x4 & 0b11) = 0 with index_bits=2


def make_cache(num_stages=2, index_bits=2):
    return DentryCache(TableGeometry(num_stages=num_stages, index_bits=index_bits))


class TestDentryCacheUnit:
    def test_miss_then_fill_then_hit(self):
        c = make_cache()
        assert c.lookup(FP_A) is None
        c.fill(FP_A, {"id": 7})
        assert c.lookup(FP_A) == {"id": 7}
        assert (c.hits, c.misses, c.fills) == (1, 1, 1)

    def test_fill_refreshes_in_place(self):
        c = make_cache()
        c.fill(FP_A, "old")
        c.fill(FP_A, "new")
        assert c.lookup(FP_A) == "new"
        assert c.occupancy == 1  # refreshed, not duplicated

    def test_ways_spread_across_stages(self):
        c = make_cache(num_stages=2)
        c.fill(FP_A, "a")
        c.fill(FP_B, "b")  # same index, second way
        assert c.lookup(FP_A) == "a"
        assert c.lookup(FP_B) == "b"
        assert c.occupancy == 2

    def test_replacement_when_all_ways_full(self):
        c = make_cache(num_stages=2)
        c.fill(FP_A, "a")
        c.fill(FP_B, "b")
        c.fill(FP_C, "c")  # both ways full -> replaces stage 0 resident
        assert c.lookup(FP_C) == "c"
        assert c.evictions == 1
        # Exactly one of the earlier residents was displaced.
        survivors = [fp for fp in (FP_A, FP_B) if c.lookup(fp) is not None]
        assert len(survivors) == 1

    def test_alias_guard_no_false_hit(self):
        # Same register index and tag, different full fingerprint: the
        # value slot stores the full fingerprint, so the alias must miss.
        c = make_cache()
        c.fill(FP_A, "a")
        assert c.lookup(FP_A_ALIAS) is None

    def test_invalidate_drops_line(self):
        c = make_cache()
        c.fill(FP_A, "a")
        assert c.invalidate(FP_A) is True
        assert c.lookup(FP_A) is None
        assert c.invalidate(FP_A) is False  # already gone

    def test_invalidate_is_conservative_on_aliases(self):
        # Invalidating the alias clears the tag-matching register even
        # though the full fingerprints differ: spurious eviction is safe,
        # a stale line is not.
        c = make_cache()
        c.fill(FP_A, "a")
        assert c.invalidate(FP_A_ALIAS) is True
        assert c.lookup(FP_A) is None

    def test_reset_cold_starts(self):
        c = make_cache()
        c.fill(FP_A, "a")
        c.fill(FP_B, "b")
        c.reset()
        assert c.occupancy == 0
        assert c.lookup(FP_A) is None

    def test_tag_zero_rejected(self):
        c = make_cache()
        with pytest.raises(ValueError, match="tag 0"):
            c.lookup(0x5_0000_0000)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_cache(num_stages=0)
        with pytest.raises(ValueError):
            make_cache(index_bits=0)
        assert make_cache(num_stages=4, index_bits=10).geometry.capacity == 4096


# ---------------------------------------------------------------------------
# switch-level behaviour
# ---------------------------------------------------------------------------


def make_switch(**kwargs):
    kwargs.setdefault("stale_config", TableGeometry(num_stages=2, index_bits=3))
    kwargs.setdefault("cache_config", TableGeometry(num_stages=2, index_bits=2))
    kwargs.setdefault("fingerprint_owner", lambda fp: "owner-server")
    return ProgrammableSwitch(**kwargs)


def hdr(op, fp=FP_A):
    return StaleSetHeader(op=op, fingerprint=fp)


def pkt(header, payload="p", src="client-0", dst="server-0"):
    return alloc_packet(src, dst, payload, header)


def fill_via_packet(sw, fp, value, rpc_id=1):
    """Run a server reply carrying a FILL header through the switch."""
    reply = pkt(
        hdr(StaleSetOp.FILL, fp),
        payload=RpcResponse(rpc_id=rpc_id, value=value),
        src="server-0",
        dst="client-0",
    )
    return sw.process(reply)


class TestSwitchLookup:
    def test_miss_forwards_to_server(self):
        sw = make_switch()
        out = sw.process(pkt(hdr(StaleSetOp.LOOKUP), payload=object()))
        assert len(out) == 1
        assert out[0].dst == "server-0"
        assert sw.dentry_cache.hits == 0

    def test_hit_fabricates_consumed_reply(self):
        sw = make_switch()
        fill_via_packet(sw, FP_A, {"size": 42})
        request = pkt(
            hdr(StaleSetOp.LOOKUP),
            payload=RpcResponse(rpc_id=99, value=None),  # any .rpc_id carrier
        )
        out = sw.process(request)
        assert len(out) == 1  # request consumed, only the reply leaves
        reply = out[0]
        assert reply.dst == "client-0"  # turned around to the requester
        assert reply.header.ret == 1  # marked switch-served
        assert isinstance(reply.payload, RpcResponse)
        assert reply.payload.rpc_id == 99
        assert reply.payload.value == {"size": 42}
        assert sw.dentry_cache.hits == 1

    def test_lookup_without_cache_forwards(self):
        sw = make_switch(cache_config=None)
        out = sw.process(pkt(hdr(StaleSetOp.LOOKUP), payload=object()))
        assert len(out) == 1 and out[0].dst == "server-0"


class TestSwitchFill:
    def test_fill_installs_and_forwards(self):
        sw = make_switch()
        out = fill_via_packet(sw, FP_A, "v")
        assert len(out) == 1 and out[0].dst == "client-0"  # reply continues
        assert sw.dentry_cache.lookup(FP_A) == "v"

    def test_error_replies_never_cached(self):
        sw = make_switch()
        reply = pkt(
            hdr(StaleSetOp.FILL, FP_A),
            payload=RpcResponse(rpc_id=1, value=None, error=("ENOENT", "x")),
            src="server-0",
            dst="client-0",
        )
        out = sw.process(reply)
        assert len(out) == 1  # still forwarded to the client
        assert sw.dentry_cache.occupancy == 0

    def test_non_rpc_payload_not_cached(self):
        sw = make_switch()
        out = sw.process(pkt(hdr(StaleSetOp.FILL, FP_A), payload="raw"))
        assert len(out) == 1
        assert sw.dentry_cache.occupancy == 0


class TestSwitchEvict:
    def test_evict_consumed_and_invalidates(self):
        sw = make_switch()
        fill_via_packet(sw, FP_A, "v")
        out = sw.process(pkt(hdr(StaleSetOp.EVICT, FP_A), payload=None))
        assert out == []  # the switch is the EVICT's destination
        assert sw.dentry_cache.lookup(FP_A) is None

    def test_staleset_insert_evicts_matching_line(self):
        sw = make_switch()
        fill_via_packet(sw, FP_A, "v")
        out = sw.process(pkt(hdr(StaleSetOp.INSERT, FP_A), src="server-0"))
        assert len(out) == 2  # the usual INSERT multicast still happens
        assert sw.dentry_cache.lookup(FP_A) is None

    def test_insert_leaves_other_lines_alone(self):
        sw = make_switch()
        fill_via_packet(sw, FP_B, "v")
        sw.process(pkt(hdr(StaleSetOp.INSERT, FP_A), src="server-0"))
        assert sw.dentry_cache.lookup(FP_B) == "v"


class TestSwitchLifecycle:
    def test_reset_cold_starts_cache(self):
        sw = make_switch()
        fill_via_packet(sw, FP_A, "v")
        sw.process(pkt(hdr(StaleSetOp.INSERT, FP_B), src="server-0"))
        sw.reset()
        assert sw.dentry_cache.occupancy == 0
        assert sw.stats().occupancy == 0
        # Post-reset the datapath works again from cold.
        fill_via_packet(sw, FP_A, "v2")
        assert sw.dentry_cache.lookup(FP_A) == "v2"

    def test_flush_cache_preserves_stale_set(self):
        sw = make_switch()
        fill_via_packet(sw, FP_A, "v")
        sw.process(pkt(hdr(StaleSetOp.INSERT, FP_B), src="server-0"))
        sw.flush_cache()
        assert sw.dentry_cache.occupancy == 0
        assert sw.stats().occupancy == 1  # stale-set bit survives
        assert sw.process(pkt(hdr(StaleSetOp.QUERY, FP_B)))[0].header.ret == 1

    def test_stats_carry_cache_counters(self):
        sw = make_switch()
        sw.process(pkt(hdr(StaleSetOp.LOOKUP), payload=object()))  # miss
        fill_via_packet(sw, FP_A, "v")
        sw.process(
            pkt(hdr(StaleSetOp.LOOKUP), payload=RpcResponse(rpc_id=1, value=None))
        )  # hit
        stats = sw.stats()
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.cache_fills == 1
        assert stats.cache_occupancy == 1
        assert stats.cache_capacity == 8  # 2 stages x 2^2

    def test_disabled_cache_reports_zero_capacity(self):
        sw = make_switch(cache_config=None)
        stats = sw.stats()
        assert stats.cache_capacity == 0
        assert (stats.cache_hits, stats.cache_misses) == (0, 0)
