"""Unit and property tests for packet and stale-set header codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import (
    FINGERPRINT_BITS,
    HEADER_STRUCT,
    Packet,
    StaleSetHeader,
    StaleSetOp,
)
from repro.net.packet import alloc_packet


class TestStaleSetHeader:
    def test_pack_unpack_roundtrip(self):
        h = StaleSetHeader(op=StaleSetOp.INSERT, fingerprint=0x1ABCD_1234_5678, seq=42, ret=1)
        assert StaleSetHeader.unpack(h.pack()) == h

    def test_packed_size(self):
        h = StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=1)
        assert len(h.pack()) == 14  # 1 + 1 + 4 + 8 bytes

    def test_fingerprint_range_enforced(self):
        with pytest.raises(ValueError):
            StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=1 << FINGERPRINT_BITS)
        with pytest.raises(ValueError):
            StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=-1)

    def test_seq_range_enforced(self):
        with pytest.raises(ValueError):
            StaleSetHeader(op=StaleSetOp.REMOVE, fingerprint=1, seq=1 << 32)

    def test_ret_binary(self):
        with pytest.raises(ValueError):
            StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=1, ret=2)

    def test_with_ret_copies(self):
        h = StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=7)
        h2 = h.with_ret(1)
        assert h.ret == 0 and h2.ret == 1
        assert h2.fingerprint == 7

    @given(
        op=st.sampled_from(list(StaleSetOp)),
        fingerprint=st.integers(min_value=0, max_value=(1 << FINGERPRINT_BITS) - 1),
        seq=st.integers(min_value=0, max_value=(1 << 32) - 1),
        ret=st.integers(min_value=0, max_value=1),
    )
    def test_roundtrip_property(self, op, fingerprint, seq, ret):
        h = StaleSetHeader(op=op, fingerprint=fingerprint, seq=seq, ret=ret)
        assert StaleSetHeader.unpack(h.pack()) == h


class TestStaleSetHeaderBoundaries:
    """Codec behaviour at the 49-bit fingerprint edge and the EMPTY tag."""

    @pytest.mark.parametrize(
        "fp",
        [0, 1, (1 << 32) - 1, 1 << 32, (1 << 48) - 1, 1 << 48, (1 << 49) - 1],
    )
    def test_roundtrip_across_49_bit_boundary(self, fp):
        h = StaleSetHeader(op=StaleSetOp.INSERT, fingerprint=fp, seq=7, ret=1)
        assert StaleSetHeader.unpack(h.pack()) == h

    def test_unpack_rejects_fingerprint_past_49_bits(self):
        # The 8-byte wire field is wider than the 49-bit domain; unpack
        # must enforce the same range as the constructor.
        raw = HEADER_STRUCT.pack(int(StaleSetOp.QUERY), 0, 0, 1 << FINGERPRINT_BITS)
        with pytest.raises(ValueError):
            StaleSetHeader.unpack(raw)

    def test_unpack_rejects_out_of_domain_ret(self):
        raw = HEADER_STRUCT.pack(int(StaleSetOp.QUERY), 2, 0, 1)
        with pytest.raises(ValueError):
            StaleSetHeader.unpack(raw)

    @pytest.mark.parametrize("op", [7, 255])
    def test_unpack_rejects_an_op_byte_with_no_member(self, op):
        raw = HEADER_STRUCT.pack(op, 0, 0, 1)
        with pytest.raises(ValueError):
            StaleSetHeader.unpack(raw)

    def test_unpack_returns_the_member_for_every_op(self):
        for op in StaleSetOp:
            parsed = StaleSetHeader.unpack(HEADER_STRUCT.pack(op, 0, 0, 1)).op
            assert parsed is op

    def test_reserved_empty_tag_roundtrips_verbatim(self):
        # A fingerprint whose low 32 tag bits are zero collides with the
        # switch's reserved "empty register" value.  The codec carries it
        # verbatim — the remap to tag 1 happens in schema.fingerprint_of,
        # not on the wire.
        fp = 5 << 32
        h = StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=fp)
        assert StaleSetHeader.unpack(h.pack()).fingerprint == fp

    def test_fingerprint_of_never_emits_empty_tag(self):
        from repro.core.schema import fingerprint_of

        for i in range(200):
            assert fingerprint_of(i, f"d{i}") & ((1 << 32) - 1) != 0

    @given(
        fingerprint=st.one_of(
            st.sampled_from([0, 1 << 32, 1 << 48, (1 << 49) - 1]),
            st.integers(min_value=0, max_value=(1 << FINGERPRINT_BITS) - 1),
        ),
        seq=st.sampled_from([0, 1, (1 << 32) - 1]),
    )
    def test_with_ret_preserves_fields(self, fingerprint, seq):
        h = StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=fingerprint, seq=seq)
        h2 = h.with_ret(1)
        assert (h2.op, h2.fingerprint, h2.seq, h2.ret) == (h.op, h.fingerprint, h.seq, 1)
        assert StaleSetHeader.unpack(h2.pack()) == h2


class TestPacket:
    def test_clone_returns_a_distinct_packet(self):
        p = alloc_packet("a", "b", "x")
        q = p.clone()
        assert q is not p
        assert (q.src, q.dst, q.payload, q.header) == ("a", "b", "x", None)

    def test_clone_overrides(self):
        p = alloc_packet("a", "b", "x")
        q = p.clone(dst="c")
        assert q.dst == "c" and p.dst == "b"

    def test_clone_is_independent_of_its_source(self):
        h = StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=9)
        p = alloc_packet("a", "b", "x", h)
        q = p.clone(dst="c")
        assert q is not p and q.dst == "c" and p.dst == "b"
        assert q.header is p.header  # headers are immutable, sharing is safe
        q.header = q.header.with_ret(1)
        q.payload = "y"
        assert p.header is h and h.ret == 0 and p.payload == "x"

    def test_alloc_packet_is_the_one_constructor(self):
        # A packet is its four fields; there is no pairing left to check.
        assert Packet.__slots__ == ("src", "dst", "payload", "header")
        with pytest.raises(TypeError):
            Packet("a", "b", None)
        h = StaleSetHeader(op=StaleSetOp.INSERT, fingerprint=3)
        p = alloc_packet("a", "b", None, h)
        assert (p.src, p.dst, p.payload, p.header) == ("a", "b", None, h)
        assert alloc_packet("a", "b", 0).header is None
