"""Snapshot/restore (checkpoint images) and tolerant WAL marking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import KVStore, WriteAheadLog


class TestSnapshotRestore:
    def test_roundtrip(self):
        kv = KVStore()
        kv.put((1, "a"), "x")
        kv.put((2, "b"), "y")
        image = kv.snapshot()
        kv.put((3, "c"), "z")
        kv.restore(image)
        assert (3, "c") not in kv
        assert kv.get((1, "a")) == "x"
        assert len(kv) == 2

    def test_snapshot_is_a_copy(self):
        kv = KVStore()
        kv.put((1, "a"), "x")
        image = kv.snapshot()
        kv.delete((1, "a"))
        assert image[(1, "a")] == "x"

    def test_restore_rebuilds_scan_index(self):
        kv = KVStore()
        for name in "cba":
            kv.put((1, name), name)
        image = kv.snapshot()
        kv2 = KVStore()
        kv2.restore(image)
        assert [k for k, _ in kv2.scan_prefix((1,))] == [(1, "a"), (1, "b"), (1, "c")]

    @settings(max_examples=50)
    @given(
        items=st.dictionaries(
            st.tuples(st.integers(0, 3), st.text(alphabet="ab", min_size=1, max_size=2)),
            st.integers(),
            max_size=12,
        )
    )
    def test_restore_equals_snapshot_source(self, items):
        kv = KVStore()
        for key, value in items.items():
            kv.put(key, value)
        other = KVStore()
        other.restore(kv.snapshot())
        assert len(other) == len(kv)
        for key, value in items.items():
            assert other.get(key) == value


class TestTolerantWalMarks:
    def test_mark_if_present_true_for_live_record(self):
        wal = WriteAheadLog()
        lsn = wal.append("kv", 1)
        assert wal.mark_applied_if_present(lsn)
        assert list(wal.replay()) == []

    def test_mark_if_present_false_after_truncation(self):
        wal = WriteAheadLog()
        lsn = wal.append("kv", 1)
        wal.mark_applied(lsn)
        wal.checkpoint()
        assert not wal.mark_applied_if_present(lsn)

    def test_strict_mark_still_raises(self):
        wal = WriteAheadLog()
        with pytest.raises(KeyError):
            wal.mark_applied(7)
