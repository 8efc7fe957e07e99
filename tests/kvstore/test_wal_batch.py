"""Batched WAL bookkeeping: ``append_many`` / ``mark_applied_many``."""

import pytest

from repro.kvstore.wal import WriteAheadLog


class TestAppendMany:
    def test_matches_per_record_appends(self):
        a, b = WriteAheadLog(), WriteAheadLog()
        payloads = [("put", ("k", i), i) for i in range(5)]
        lsns_a = [a.append("kv", p) for p in payloads]
        lsns_b = b.append_many("kv", payloads)
        assert lsns_a == lsns_b
        assert a.appends == b.appends == 5
        assert [(r.lsn, r.kind, r.payload) for r in a.replay()] == [
            (r.lsn, r.kind, r.payload) for r in b.replay()
        ]

    def test_contiguous_lsns_after_prior_appends(self):
        wal = WriteAheadLog()
        wal.append("kv", "x")
        lsns = wal.append_many("changelog", ["a", "b", "c"])
        assert lsns == [1, 2, 3]
        assert wal.append("kv", "y") == 4

    def test_empty_batch(self):
        wal = WriteAheadLog()
        wal.append("kv", "x")
        assert wal.append_many("changelog", []) == []
        assert wal.appends == 1
        assert wal.append("kv", "y") == 1


class TestMarkAppliedMany:
    def test_marks_and_counts(self):
        wal = WriteAheadLog()
        lsns = wal.append_many("changelog", list(range(6)))
        assert wal.mark_applied_many(lsns[::2]) == 3
        assert [r.lsn for r in wal.replay()] == lsns[1::2]

    def test_tolerates_checkpointed_lsns(self):
        wal = WriteAheadLog()
        lsns = wal.append_many("changelog", list(range(4)))
        wal.mark_applied_many(lsns[:2])
        wal.checkpoint()  # drops the applied prefix
        # Re-marking dropped LSNs is silently skipped, like
        # mark_applied_if_present.
        assert wal.mark_applied_many(lsns) == 2
        assert list(wal.replay()) == []

    def test_empty_log(self):
        assert WriteAheadLog().mark_applied_many([0, 1]) == 0

    def test_batch_rejects_a_none_payload(self):
        wal = WriteAheadLog()
        with pytest.raises(ValueError):
            wal.append_many("changelog", ["a", None])
        assert len(wal) == 0 and wal.appends == 0
