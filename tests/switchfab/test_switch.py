"""Unit tests for the programmable switch: data plane and control-plane methods."""

import pytest

from repro.net import StaleSetHeader, StaleSetOp, alloc_packet
from repro.switchfab import ProgrammableSwitch, TableGeometry


def make_switch(**kwargs):
    kwargs.setdefault("stale_config", TableGeometry(num_stages=2, index_bits=3))
    kwargs.setdefault("fingerprint_owner", lambda fp: "owner-server")
    return ProgrammableSwitch(**kwargs)


def hdr(op, fp=0x1_0000_0001, seq=0):
    return StaleSetHeader(op=op, fingerprint=fp, seq=seq)


def pkt(header, src="server-0", dst="client-0"):
    return alloc_packet(src, dst, "p", header)


class TestForwarding:
    def test_regular_packets_untouched(self):
        sw = make_switch()
        p = alloc_packet("a", "b", "x")  # no header: the parser forwards it
        out = sw.process(p)
        assert out == [p] and out[0] is p and p.header is None

    def test_none_op_forwards(self):
        sw = make_switch()
        out = sw.process(pkt(hdr(StaleSetOp.NONE)))
        assert len(out) == 1 and out[0].dst == "client-0"


class TestQuery:
    def test_query_miss_ret_zero(self):
        sw = make_switch()
        out = sw.process(pkt(hdr(StaleSetOp.QUERY)))
        assert len(out) == 1
        assert out[0].header.ret == 0

    def test_query_hit_ret_one(self):
        sw = make_switch()
        sw.process(pkt(hdr(StaleSetOp.INSERT)))
        out = sw.process(pkt(hdr(StaleSetOp.QUERY)))
        assert out[0].header.ret == 1


class TestInsert:
    def test_insert_multicasts_to_client_and_server(self):
        sw = make_switch()
        out = sw.process(pkt(hdr(StaleSetOp.INSERT), src="server-3", dst="client-7"))
        assert len(out) == 2
        dsts = sorted(p.dst for p in out)
        assert dsts == ["client-7", "server-3"]
        assert all(p.header.ret == 1 for p in out)

    def test_insert_overflow_redirects_to_owner(self):
        # One stage, index_bits=1: each set has exactly one way.
        sw = ProgrammableSwitch(
            stale_config=TableGeometry(num_stages=1, index_bits=1),
            fingerprint_owner=lambda fp: "fallback-server",
        )
        a = hdr(StaleSetOp.INSERT, fp=0x0_0000_0001)
        b = hdr(StaleSetOp.INSERT, fp=0x0_0000_0002)  # same set index, new tag
        assert len(sw.process(pkt(a))) == 2
        out = sw.process(pkt(b, dst="client-9"))
        assert len(out) == 1
        assert out[0].dst == "fallback-server"
        assert out[0].header.ret == 0

    def test_overflow_without_route_is_an_error(self):
        sw = ProgrammableSwitch(
            stale_config=TableGeometry(num_stages=1, index_bits=1),
            fingerprint_owner=None,
        )
        sw.process(pkt(hdr(StaleSetOp.INSERT, fp=0x0_0000_0001)))
        with pytest.raises(RuntimeError, match="no fingerprint"):
            sw.process(pkt(hdr(StaleSetOp.INSERT, fp=0x0_0000_0002)))


class TestRemove:
    def test_remove_clears_and_forwards(self):
        sw = make_switch()
        sw.process(pkt(hdr(StaleSetOp.INSERT)))
        out = sw.process(pkt(hdr(StaleSetOp.REMOVE, seq=1), src="server-0"))
        assert len(out) == 1
        assert sw.process(pkt(hdr(StaleSetOp.QUERY)))[0].header.ret == 0

    def test_duplicate_remove_filtered_by_seq(self):
        sw = make_switch()
        sw.process(pkt(hdr(StaleSetOp.INSERT)))
        sw.process(pkt(hdr(StaleSetOp.REMOVE, seq=5), src="server-0"))
        sw.process(pkt(hdr(StaleSetOp.INSERT)))
        # Retransmitted remove with the same seq must not clear the new entry.
        sw.process(pkt(hdr(StaleSetOp.REMOVE, seq=5), src="server-0"))
        assert sw.process(pkt(hdr(StaleSetOp.QUERY)))[0].header.ret == 1


class TestControlPlane:
    def test_stats_aggregate(self):
        sw = make_switch()
        sw.process(pkt(hdr(StaleSetOp.INSERT)))
        sw.process(pkt(hdr(StaleSetOp.QUERY)))
        stats = sw.stats()
        assert stats.inserts == 1
        assert stats.queries == 1
        assert stats.occupancy == 1
        assert stats.capacity == 16  # 2 stages x 2^3

    def test_failure_resets_the_switch(self):
        sw = make_switch()
        for fp in (0x1_0000_0001, 0x1_0000_0002):
            sw.process(pkt(hdr(StaleSetOp.INSERT, fp=fp)))
        assert sw.stats().occupancy == 2
        sw.reset()
        assert sw.stats().occupancy == 0

    def test_install_routes(self):
        sw = ProgrammableSwitch(stale_config=TableGeometry(num_stages=1, index_bits=1))
        sw.install_fingerprint_owner(lambda fp: "routed-owner")
        sw.process(pkt(hdr(StaleSetOp.INSERT, fp=0x0_0000_0001)))
        out = sw.process(pkt(hdr(StaleSetOp.INSERT, fp=0x0_0000_0002)))
        assert out[0].dst == "routed-owner"
