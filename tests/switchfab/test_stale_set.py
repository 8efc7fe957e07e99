"""Unit + property tests for register stages and the in-network stale set."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switchfab import RegisterStage, StaleSet, TableGeometry


class TestRegisterStage:
    def test_empty_query_misses(self):
        stage = RegisterStage(8)
        assert not stage.query(0, 5)

    def test_conditional_insert_then_query(self):
        stage = RegisterStage(8)
        assert stage.conditional_insert(3, 42)
        assert stage.query(3, 42)
        assert not stage.query(3, 41)

    def test_insert_into_occupied_different_tag_fails(self):
        stage = RegisterStage(8)
        stage.conditional_insert(0, 1)
        assert not stage.conditional_insert(0, 2)
        assert stage.query(0, 1)

    def test_insert_same_tag_idempotent(self):
        stage = RegisterStage(8)
        assert stage.conditional_insert(0, 9)
        assert stage.conditional_insert(0, 9)  # already holds tag: success
        assert stage.occupied == 1

    def test_conditional_remove_only_matching(self):
        stage = RegisterStage(8)
        stage.conditional_insert(0, 7)
        stage.conditional_remove(0, 8)  # mismatch: no-op
        assert stage.query(0, 7)
        stage.conditional_remove(0, 7)
        assert not stage.query(0, 7)
        assert stage.occupied == 0

    # The stage's (index, tag) domain is proven where a fingerprint enters
    # a table, by TableGeometry.split; the actions themselves do not check.
    def test_tag_zero_reserved(self):
        geometry = TableGeometry(num_stages=1, index_bits=3)
        with pytest.raises(ValueError, match="tag 0"):
            geometry.split(5 << 32)
        assert geometry.split((5 << 32) | 1) == (5, 1)

    def test_index_bounds(self):
        geometry = TableGeometry(num_stages=1, index_bits=3)
        size = geometry.stages()[0].size
        top = (1 << 49) - 1
        for fingerprint in (1, top, (8 << 32) | 1, (0x1FFFF << 32) | 0xFFFFFFFF):
            index, tag = geometry.split(fingerprint)
            assert 0 <= index < size and 0 < tag < (1 << 32)
        for fingerprint in (-1, top + 1):
            with pytest.raises(ValueError, match="49-bit"):
                geometry.split(fingerprint)

    def test_reset(self):
        stage = RegisterStage(4)
        stage.conditional_insert(1, 5)
        stage.reset()
        assert not stage.query(1, 5)
        assert stage.occupied == 0


def small_set(stages=3, index_bits=2):
    return StaleSet(TableGeometry(num_stages=stages, index_bits=index_bits))


def fp(index: int, tag: int, index_bits: int = 2) -> int:
    """Build a fingerprint with the given set index and tag."""
    assert 0 < tag < (1 << 32)
    return (index << 32) | tag


class TestStaleSetBasics:
    def test_insert_query_remove_cycle(self):
        s = small_set()
        f = fp(1, 100)
        assert not s.query(f)
        assert s.insert(f)
        assert s.query(f)
        s.remove(f)
        assert not s.query(f)

    def test_occupancy_tracks(self):
        s = small_set()
        for tag in range(1, 4):
            s.insert(fp(0, tag))
        assert s.occupancy == 3

    def test_overflow_when_all_ways_full(self):
        s = small_set(stages=2)
        assert s.insert(fp(0, 1))
        assert s.insert(fp(0, 2))
        assert not s.insert(fp(0, 3))  # both ways of set 0 are taken
        assert s.insert_overflows == 1
        # A different set index still has room.
        assert s.insert(fp(1, 3))

    def test_duplicate_insert_is_idempotent(self):
        s = small_set()
        f = fp(2, 50)
        assert s.insert(f)
        assert s.insert(f)
        assert s.occupancy == 1  # no duplicated tags across stages
        s.remove(f)
        assert not s.query(f)  # single remove clears it fully

    def test_insert_cleans_later_stage_duplicates(self):
        """Figure 9: after an insert succeeds at stage k, later stages remove the tag."""
        s = small_set(stages=3)
        f = fp(0, 9)
        # Manually plant a duplicate in stage 2 (simulating an interleaving).
        index, tag = 0, 9
        s._stages[2].conditional_insert(index, tag)
        assert s.occupancy == 1
        s.insert(f)  # lands in stage 0, cleans stage 2
        assert s.occupancy == 1
        s.remove(f)
        assert not s.query(f)

    def test_fingerprint_with_zero_tag_rejected(self):
        s = small_set()
        with pytest.raises(ValueError):
            s.insert(0x3 << 32)  # tag bits all zero

    def test_out_of_range_fingerprint_rejected(self):
        s = small_set()
        with pytest.raises(ValueError):
            s.query(1 << 49)

    def test_reset_clears_everything(self):
        s = small_set()
        s.insert(fp(0, 1))
        s.remove(fp(0, 1), source="srv", seq=5)
        s.reset()
        assert s.occupancy == 0
        # SEQ filter state cleared too: seq 1 accepted after reset.
        assert s.remove(fp(0, 1), source="srv", seq=1)


class TestRemoveSeqFilter:
    def test_stale_seq_filtered(self):
        s = small_set()
        f = fp(1, 7)
        s.insert(f)
        assert s.remove(f, source="s0", seq=10)
        s.insert(f)
        # A duplicate (resent) remove with an old seq must not clear it.
        assert not s.remove(f, source="s0", seq=10)
        assert s.query(f)

    def test_seq_filter_is_per_source(self):
        s = small_set()
        f = fp(1, 7)
        s.insert(f)
        assert s.remove(f, source="s0", seq=10)
        s.insert(f)
        assert s.remove(f, source="s1", seq=1)  # different source: own counter
        assert not s.query(f)

    def test_seqless_remove_always_executes(self):
        s = small_set()
        f = fp(0, 3)
        s.insert(f)
        assert s.remove(f)
        s.insert(f)
        assert s.remove(f)


class TestConfig:
    def test_capacity(self):
        cfg = TableGeometry(num_stages=10, index_bits=17)
        assert cfg.capacity == 1_310_720  # the paper's figure

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            TableGeometry(num_stages=0, index_bits=10)
        with pytest.raises(ValueError):
            TableGeometry(num_stages=10, index_bits=0)
        # One bound for every table: the fingerprint bits above the tag.
        TableGeometry(num_stages=10, index_bits=17)
        with pytest.raises(ValueError):
            TableGeometry(num_stages=10, index_bits=18)


# -- property-based: the stale set behaves like a sequential set --------------

fingerprints = st.integers(min_value=0, max_value=(1 << 6) - 1).map(
    lambda n: ((n >> 4) << 32) | ((n & 0xF) + 1)
)
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "remove", "query"]), fingerprints),
    max_size=60,
)


@settings(max_examples=200)
@given(ops=operations)
def test_stale_set_matches_model_set(ops):
    """Sequentially applied ops must match an ideal set, absent overflow.

    Overflow (insert returning False) is the one legal divergence; the model
    then also skips the element.
    """
    s = StaleSet(TableGeometry(num_stages=4, index_bits=2))
    model = set()
    for op, f in ops:
        if op == "insert":
            if s.insert(f):
                model.add(f)
        elif op == "remove":
            s.remove(f)
            model.discard(f)
        else:
            assert s.query(f) == (f in model)
    for f in model:
        assert s.query(f)
    assert s.occupancy == len(model)


@settings(max_examples=100)
@given(
    fs=st.lists(fingerprints, min_size=1, max_size=10, unique=True),
)
def test_insert_remove_leaves_empty(fs):
    s = StaleSet(TableGeometry(num_stages=10, index_bits=2))
    inserted = [f for f in fs if s.insert(f)]
    for f in inserted:
        s.remove(f)
    assert s.occupancy == 0
    for f in inserted:
        assert not s.query(f)
