"""Unit + property tests for the KV store, WAL, and transactions."""

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import (
    KeyNotFound,
    KVStore,
    TransactionError,
    WriteAheadLog,
)


class TestPointOps:
    def test_put_get(self):
        kv = KVStore()
        kv.put((1, "a"), "va")
        assert kv.get((1, "a")) == "va"

    def test_get_missing_raises(self):
        kv = KVStore()
        with pytest.raises(KeyNotFound):
            kv.get((9, "nope"))

    def test_get_or_none(self):
        kv = KVStore()
        assert kv.get_or_none((1, "x")) is None

    def test_overwrite(self):
        kv = KVStore()
        kv.put((1, "a"), "v1")
        kv.put((1, "a"), "v2")
        assert kv.get((1, "a")) == "v2"
        assert len(kv) == 1

    def test_delete_present_and_absent(self):
        kv = KVStore()
        kv.put((1, "a"), "v")
        assert kv.delete((1, "a")) is True
        assert kv.delete((1, "a")) is False
        assert (1, "a") not in kv

    def test_contains(self):
        kv = KVStore()
        kv.put((2, "b"), 1)
        assert (2, "b") in kv
        assert (2, "c") not in kv


class TestScan:
    def test_prefix_scan_orders_by_name(self):
        kv = KVStore()
        kv.put((5, "zeta"), 1)
        kv.put((5, "alpha"), 2)
        kv.put((6, "beta"), 3)
        kv.put((4, "gamma"), 4)
        got = list(kv.scan_prefix((5,)))
        assert [k for k, _ in got] == [(5, "alpha"), (5, "zeta")]

    def test_scan_empty_prefix_region(self):
        kv = KVStore()
        kv.put((1, "a"), 1)
        assert list(kv.scan_prefix((2,))) == []

    def test_scan_does_not_leak_across_prefix(self):
        kv = KVStore()
        kv.put((1, "x"), 1)
        kv.put((2, "a"), 2)
        got = [k for k, _ in kv.scan_prefix((1,))]
        assert got == [(1, "x")]


class TestTransactions:
    def test_commit_applies_all(self):
        kv = KVStore()
        txn = kv.transaction()
        txn.put((1, "a"), "x")
        txn.put((1, "b"), "y")
        txn.commit()
        assert kv.get((1, "a")) == "x"
        assert kv.get((1, "b")) == "y"

    def test_staged_delete_hides_key(self):
        kv = KVStore()
        kv.put((1, "a"), "v")
        txn = kv.transaction()
        txn.delete((1, "a"))
        assert kv.get((1, "a")) == "v"  # staged: not visible before commit
        txn.commit()
        assert (1, "a") not in kv

    def test_double_commit_rejected(self):
        kv = KVStore()
        txn = kv.transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_txn_is_single_wal_record(self):
        kv = KVStore()
        before = len(kv.wal)
        txn = kv.transaction()
        txn.put((1, "a"), 1)
        txn.put((1, "b"), 2)
        txn.commit()
        assert len(kv.wal) == before + 1

    # A transaction keeps each key's last write: the state the ordered op
    # list leaves, before and after a crash and WAL replay.
    def test_put_delete_reput_leaves_the_last_put(self):
        kv = KVStore()
        kv.put((1, "b"), "b")
        txn = kv.transaction()
        txn.put((1, "a"), "first")
        txn.delete((1, "a"))
        txn.put((1, "b"), "b2")
        txn.put((1, "a"), "last")
        txn.commit()
        state = list(kv.scan_prefix((1,)))
        assert state == [((1, "a"), "last"), ((1, "b"), "b2")]
        kv.crash()
        kv.recover()
        assert list(kv.scan_prefix((1,))) == state

    def test_put_then_delete_leaves_no_key(self):
        kv = KVStore()
        kv.put((1, "b"), "b")
        txn = kv.transaction()
        txn.put((1, "a"), "a")
        txn.put((1, "c"), "c")
        txn.delete((1, "a"))
        txn.commit()
        state = list(kv.scan_prefix((1,)))
        assert state == [((1, "b"), "b"), ((1, "c"), "c")]
        assert (1, "a") not in kv
        kv.crash()
        kv.recover()
        assert list(kv.scan_prefix((1,))) == state
        assert (1, "a") not in kv


class TestCrashRecovery:
    def test_puts_survive_crash(self):
        kv = KVStore()
        kv.put((1, "a"), "va")
        kv.put((2, "b"), "vb")
        kv.crash()
        assert len(kv) == 0
        kv.recover()
        assert kv.get((1, "a")) == "va"
        assert kv.get((2, "b")) == "vb"

    def test_deletes_survive_crash(self):
        kv = KVStore()
        kv.put((1, "a"), "va")
        kv.delete((1, "a"))
        kv.crash()
        kv.recover()
        assert (1, "a") not in kv

    def test_txn_survives_crash_atomically(self):
        kv = KVStore()
        txn = kv.transaction()
        txn.put((1, "a"), 1)
        txn.delete((1, "zz"))
        txn.commit()
        kv.crash()
        kv.recover()
        assert kv.get((1, "a")) == 1

    def test_unlogged_write_lost_on_crash(self):
        kv = KVStore()
        kv.put((1, "a"), "v", log=False)
        kv.crash()
        kv.recover()
        assert (1, "a") not in kv

    def test_scan_index_rebuilt_after_recovery(self):
        kv = KVStore()
        for name in "cab":
            kv.put((3, name), name)
        kv.crash()
        kv.recover()
        assert [k for k, _ in kv.scan_prefix((3,))] == [(3, "a"), (3, "b"), (3, "c")]


class TestWal:
    def test_lsn_monotonic(self):
        wal = WriteAheadLog()
        lsns = [wal.append("kv", i) for i in range(5)]
        assert lsns == [0, 1, 2, 3, 4]

    def test_mark_applied_skips_replay(self):
        wal = WriteAheadLog()
        a = wal.append("changelog", "x")
        b = wal.append("changelog", "y")
        wal.mark_applied(a)
        assert [(r.lsn, r.payload) for r in wal.replay()] == [(b, "y")]

    def test_mark_applied_releases_the_payload(self):
        class Payload:
            pass

        wal = WriteAheadLog()
        payload = Payload()
        ref = weakref.ref(payload)
        lsn = wal.append("changelog", payload)
        del payload
        assert ref() is not None  # the unapplied record keeps it
        wal.mark_applied(lsn)
        assert ref() is None
        assert len(wal) == 1  # the slot stays until a checkpoint

    def test_none_payload_rejected(self):
        wal = WriteAheadLog()
        with pytest.raises(ValueError):
            wal.append("kv", None)
        assert len(wal) == 0 and wal.appends == 0

    def test_checkpoint_drops_applied_prefix(self):
        wal = WriteAheadLog()
        a = wal.append("kv", 1)
        b = wal.append("kv", 2)
        c = wal.append("kv", 3)
        wal.mark_applied(a)
        wal.mark_applied(c)
        assert wal.checkpoint() == 1  # only the prefix [a]
        assert len(wal) == 2
        # lsn lookup still works after checkpoint
        wal.mark_applied(b)
        assert wal.checkpoint() == 2

    def test_missing_lsn_raises(self):
        wal = WriteAheadLog()
        with pytest.raises(KeyError):
            wal.mark_applied(99)


# -- property tests: the store matches a dict model ---------------------------

keys = st.tuples(st.integers(min_value=0, max_value=5),
                 st.text(alphabet="abc", min_size=1, max_size=2))
ops = st.lists(
    st.tuples(st.sampled_from(["put", "delete", "crash"]), keys,
              st.integers(min_value=0, max_value=99)),
    max_size=40,
)


@settings(max_examples=150)
@given(ops=ops)
def test_store_matches_dict_model_through_crashes(ops):
    kv = KVStore()
    model = {}
    for op, key, value in ops:
        if op == "put":
            kv.put(key, value)
            model[key] = value
        elif op == "delete":
            kv.delete(key)
            model.pop(key, None)
        else:
            kv.crash()
            kv.recover()
    assert len(kv) == len(model)
    for key, value in model.items():
        assert kv.get(key) == value
    # Scan order must be total-sorted and complete.
    all_keys = []
    for pid in range(6):
        all_keys.extend(k for k, _ in kv.scan_prefix((pid,)))
    assert all_keys == sorted(model.keys())
