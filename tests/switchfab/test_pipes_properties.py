"""Property tests on the switch's stale set: it behaves like one sequential
set, and SEQ filtering is per source.

The file keeps the name it had when the set was split over a switch's
pipes; that split is not modelled (DESIGN.md §3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FINGERPRINT_BITS, StaleSetHeader, StaleSetOp, alloc_packet
from repro.switchfab import ProgrammableSwitch, TableGeometry

fingerprints = st.integers(min_value=0, max_value=(1 << 10) - 1).map(
    lambda n: ((n >> 5) << 32) | ((n & 0x1F) + 1) | ((n % 2) << (FINGERPRINT_BITS - 1))
)


def make_switch():
    return ProgrammableSwitch(
        stale_config=TableGeometry(num_stages=6, index_bits=6),
        fingerprint_owner=lambda fp: "owner",
    )


def insert(sw, fp, src="s0", dst="c0"):
    return sw.process(
        alloc_packet(src, dst, "p", StaleSetHeader(op=StaleSetOp.INSERT, fingerprint=fp))
    )


def query(sw, fp):
    out = sw.process(
        alloc_packet("s0", "c0", "p", StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=fp))
    )
    return out[0].header.ret == 1


def remove(sw, fp, src="s0", seq=None):
    header = StaleSetHeader(op=StaleSetOp.REMOVE, fingerprint=fp, seq=seq or 0)
    sw.process(alloc_packet(src, "c0", "p", header))


@settings(max_examples=100)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["i", "r", "q", "dup"]), fingerprints, st.sampled_from(["s0", "s1"])),
        max_size=40,
    )
)
def test_switch_matches_sequential_model(ops):
    sw = make_switch()
    model = set()
    seq = {"s0": 0, "s1": 0}
    last_remove = {}
    for kind, fp, src in ops:
        if kind == "i":
            out = insert(sw, fp, src=src)
            if out[0].header.ret == 1:
                model.add(fp)
        elif kind == "r":
            seq[src] += 1
            remove(sw, fp, src=src, seq=seq[src])
            last_remove[src] = (fp, seq[src])
            model.discard(fp)
        elif kind == "dup" and src in last_remove:
            # A retransmitted REMOVE carries the same SEQ: that source's
            # filter drops it.
            old_fp, old_seq = last_remove[src]
            remove(sw, old_fp, src=src, seq=old_seq)
        else:
            assert query(sw, fp) == (fp in model)
    for fp in model:
        assert query(sw, fp)
    assert sw.stats().occupancy == len(model)
    # Failure empties the switch and forgets every SEQ filter.
    sw.reset()
    assert sw.stats().occupancy == 0
    for n, fp in enumerate(model, start=1):
        assert not query(sw, fp)
        insert(sw, fp)
        remove(sw, fp, src="s0", seq=n)  # far below the pre-failure SEQs
        assert not query(sw, fp)


@settings(max_examples=60)
@given(fp=fingerprints, s1=st.integers(1, 100), s2=st.integers(1, 100))
def test_seq_filter_is_per_source(fp, s1, s2):
    sw = make_switch()
    insert(sw, fp)
    remove(sw, fp, src="server-A", seq=s1)
    assert not query(sw, fp)
    insert(sw, fp)
    # A different source's counter is independent: any seq works.
    remove(sw, fp, src="server-B", seq=s2)
    assert not query(sw, fp)
    insert(sw, fp)
    # But a stale seq from a known source is filtered.
    remove(sw, fp, src="server-A", seq=s1)
    assert query(sw, fp)
