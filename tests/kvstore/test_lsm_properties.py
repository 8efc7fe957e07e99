"""Property tests: the LSM-style KVStore matches reference semantics.

The store's observable behaviour — point reads, ordered prefix scans
(paginated or not), snapshots, and WAL crash-recovery —
must be indistinguishable from the seed's simple sorted-list + dict
implementation, no matter how puts, deletes, overwrites, merges, and
compactions interleave.  Hypothesis drives randomized op sequences
against both and diffs the full visible state after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import KVStore


class ReferenceStore:
    """The seed semantics: a dict plus an op log standing in for the WAL."""

    def __init__(self):
        self.data = {}
        self.log = []

    def put(self, key, value):
        self.log.append(("put", key, value))
        self.data[key] = value

    def delete(self, key):
        self.log.append(("delete", key, None))
        return self.data.pop(key, None) is not None

    def txn(self, ops):
        # One atomic batch; replay semantics equal per-op application.
        for op, key, value in ops:
            self.log.append((op, key, value))
            if op == "put":
                self.data[key] = value
            else:
                self.data.pop(key, None)

    def scan_prefix(self, prefix):
        n = len(prefix)
        keys = sorted(k for k in self.data if k[:n] == prefix)
        return [(k, self.data[k]) for k in keys]

    def snapshot(self):
        return dict(self.data)

    def restore(self, image):
        self.data = dict(image)

    def crash_recover(self):
        self.data = {}
        for op, key, value in self.log:
            if op == "put":
                self.data[key] = value
            else:
                self.data.pop(key, None)


def keys_st():
    field = st.integers(min_value=0, max_value=3)
    return st.tuples(field, field, field) | st.tuples(field, field) | st.tuples(field)


# A small pool, so one transaction often writes a key more than once.
txn_keys_st = st.sampled_from([(1,), (1, 2), (1, 3), (1, 2, 0)])

ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys_st(), st.integers(0, 99)),
        st.tuples(st.just("delete"), keys_st(), st.none()),
        st.tuples(st.just("txn"), st.lists(
            st.tuples(st.sampled_from(["put", "delete"]), txn_keys_st, st.integers(0, 99)),
            max_size=6,
        ), st.none()),
        st.tuples(st.just("scan"), keys_st(), st.none()),
        st.tuples(st.just("snapshot"), st.none(), st.none()),
        st.tuples(st.just("restore"), st.none(), st.none()),
        st.tuples(st.just("crash_recover"), st.none(), st.none()),
    ),
    max_size=60,
)


def assert_same_state(store: KVStore, ref: ReferenceStore):
    assert sorted(store.scan_prefix(())) == sorted(ref.data.items())
    assert len(store) == len(ref.data)
    for key in ref.data:
        assert key in store
        assert store.get(key) == ref.data[key]


class TestLsmMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(ops=ops_st)
    def test_randomized_sequences(self, ops):
        store, ref = KVStore(), ReferenceStore()
        image = ref_image = None
        restored = False
        for op, a, b in ops:
            if op == "put":
                store.put(a, b)
                ref.put(a, b)
            elif op == "delete":
                assert store.delete(a) == ref.delete(a)
            elif op == "txn":
                txn = store.transaction()
                for top, key, value in a:
                    if top == "put":
                        txn.put(key, value)
                    else:
                        txn.delete(key)
                txn.commit()
                ref.txn([(top, k, v if top == "put" else None) for top, k, v in a])
            elif op == "scan":
                assert list(store.scan_prefix(a)) == ref.scan_prefix(a)
            elif op == "snapshot":
                image, ref_image = store.snapshot(), ref.snapshot()
            elif op == "restore":
                if image is not None:
                    store.restore(image)
                    ref.restore(ref_image)
                    restored = True
            elif op == "crash_recover":
                # A restore without a covering checkpoint diverges from pure
                # WAL replay by design; skip recovery checks after restores,
                # like the real server (which checkpoints the WAL together
                # with the image).
                if not restored:
                    store.crash()
                    store.recover()
                    ref.crash_recover()
            assert_same_state(store, ref)

    @settings(max_examples=80, deadline=None)
    @given(
        puts=st.lists(st.tuples(keys_st(), st.integers(0, 99)), max_size=30),
        deletes=st.lists(keys_st(), max_size=30),
        prefix=keys_st(),
    )
    def test_interleaved_churn_then_scan_and_count(self, puts, deletes, prefix):
        store, ref = KVStore(), ReferenceStore()
        for key, value in puts:
            store.put(key, value)
            ref.put(key, value)
        for key in deletes:
            store.delete(key)
            ref.delete(key)
        # Resurrect a few deleted keys: tombstone + re-put must merge to one.
        for key in deletes[:5]:
            store.put(key, -1)
            ref.put(key, -1)
        assert list(store.scan_prefix(prefix)) == ref.scan_prefix(prefix)
        assert sorted(store.scan_prefix(())) == sorted(ref.data.items())


# -- directory-shaped keys: the per-directory index (DESIGN.md §11) ----------

def dir_keys_st():
    """Table 3 shapes: entries of four directories and inodes beside them,
    plus the odd two-field key that *equals* a directory's scan prefix."""
    kind = st.sampled_from(["D", "E"])
    ident = st.integers(min_value=0, max_value=3)
    name = st.sampled_from(["a", "b", "c", "d", "e", "f"])
    return st.tuples(kind, ident, name) | st.tuples(kind, ident)


def dir_prefix_st():
    kind = st.sampled_from(["D", "E"])
    return (
        st.tuples(kind, st.integers(0, 3))
        | st.tuples(kind)
        | st.just(())
    )


dir_ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("put"), dir_keys_st(), st.integers(0, 99)),
        st.tuples(st.just("delete"), dir_keys_st(), st.none()),
        # delete -> re-put of one key with no scan in between
        st.tuples(st.just("reput"), dir_keys_st(), st.integers(0, 99)),
        st.tuples(st.just("scan"), dir_prefix_st(), st.none()),
        st.tuples(st.just("crash_recover"), st.none(), st.none()),
        st.tuples(st.just("checkpoint_restore"), st.none(), st.none()),
    ),
    max_size=80,
)


class TestPerDirectoryIndexMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(ops=dir_ops_st)
    def test_interleaved_directories(self, ops):
        store, ref = KVStore(), ReferenceStore()
        for op, a, b in ops:
            if op == "put":
                store.put(a, b)
                ref.put(a, b)
            elif op == "delete":
                assert store.delete(a) == ref.delete(a)
            elif op == "reput":
                assert store.delete(a) == ref.delete(a)
                store.put(a, b)
                ref.put(a, b)
            elif op == "scan":
                assert list(store.scan_prefix(a)) == ref.scan_prefix(a)
            elif op == "crash_recover":
                store.crash()
                store.recover()
                ref.crash_recover()
            elif op == "checkpoint_restore":
                # Restoring the image just taken must rebuild the same index.
                store.restore(store.snapshot())
            for prefix in (("E",), ("D",), ()):
                assert list(store.scan_prefix(prefix)) == ref.scan_prefix(prefix)
            assert_same_state(store, ref)

    def test_key_equal_to_the_scanned_prefix_sorts_first(self):
        store = KVStore()
        store.put(("E", 1, "b"), 1)
        store.put(("E", 1), 0)
        store.put(("E", 1, "a"), 2)
        assert [k for k, _ in store.scan_prefix(("E", 1))] == [
            ("E", 1), ("E", 1, "a"), ("E", 1, "b"),
        ]

    def test_scanning_a_dirty_directory(self):
        store = KVStore()
        for name in "dbfa":
            store.put(("E", 1, name), name)
        assert [k[2] for k, _ in store.scan_prefix(("E", 1))] == ["a", "b", "d", "f"]
        store.delete(("E", 1, "b"))
        store.put(("E", 1, "c"), "c")
        store.put(("E", 2, "z"), "z")
        assert [k[2] for k, _ in store.scan_prefix(("E", 1))] == ["a", "c", "d", "f"]
