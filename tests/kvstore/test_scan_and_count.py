"""Entry counts and per-directory scan locality."""

from repro.kvstore import KVStore


def filled(n=10):
    store = KVStore()
    for i in range(n):
        store.put(("E", 1, f"f{i:02d}"), i)
    store.put(("D", 0, "dir"), "inode")
    return store


def count(store, prefix):
    return len(list(store.scan_prefix(prefix)))


class TestCountPrefixCache:
    """A directory's entry count is the length of its scan (statdir reads
    the count kept in the directory's inode instead)."""

    def test_count_tracks_puts_deletes_and_overwrites(self):
        store = KVStore()
        assert count(store, ("E", 1)) == 0
        store.put(("E", 1, "a"), 1)
        store.put(("E", 1, "a"), 2)  # overwrite: no double count
        store.put(("E", 1, "b"), 3)
        assert count(store, ("E", 1)) == 2
        store.delete(("E", 1, "a"))
        store.delete(("E", 1, "a"))  # double delete: no under-count
        assert count(store, ("E", 1)) == 1

    def test_count_survives_transactions_restore_and_recovery(self):
        store = KVStore()
        txn = store.transaction()
        txn.put(("E", 1, "a"), 1)
        txn.put(("E", 1, "b"), 2)
        txn.delete(("E", 1, "a"))
        txn.commit()
        assert count(store, ("E", 1)) == 1
        image = store.snapshot()
        store.put(("E", 1, "c"), 3)
        store.restore(image)
        assert count(store, ("E", 1)) == 1
        store.crash()
        assert count(store, ("E", 1)) == 0
        store.recover()
        # Replay reconstructs everything logged, including the pre-restore c.
        assert count(store, ("E", 1)) == 2


class TestScanLocality:
    """A directory read pays for its own directory only.  Gated by count
    (``store.merges`` = per-directory sorts paid), never by time."""

    def test_writes_to_b_cost_a_nothing_and_b_one_sort(self):
        store = KVStore()
        for name in ("m", "c", "x", "a"):  # out of order: A needs one sort
            store.put(("E", "A", name), name)
        assert [k[2] for k, _ in store.scan_prefix(("E", "A"))] == ["a", "c", "m", "x"]
        warm = store.merges
        assert warm == 1

        def scan_a():
            assert len(list(store.scan_prefix(("E", "A")))) == 4

        for i in reversed(range(50)):
            store.put(("E", "B", f"f{i:02d}"), i)
        scan_a()
        assert store.merges == warm  # A's scans never pay for B's puts
        for i in range(0, 50, 2):
            store.delete(("E", "B", f"f{i:02d}"))
        store.put(("D", 0, "B"), "inode")
        paid_by_b = store.merges - warm
        scan_a()
        assert store.merges == warm + paid_by_b  # ... nor for B's deletes
        assert [k[2] for k, _ in store.scan_prefix(("E", "B"))] == [
            f"f{i:02d}" for i in range(1, 50, 2)
        ]
        list(store.scan_prefix(("E", "B")))
        # B pays exactly one sort across all its deletes and scans.
        assert store.merges == warm + 1

    def test_a_delete_sorts_an_out_of_order_directory_once(self):
        store = KVStore()
        for i in reversed(range(40)):
            store.put(("E", 1, f"f{i:02d}"), i)
        for i in (3, 17, 0, 39, 21):
            assert store.delete(("E", 1, f"f{i:02d}"))
        assert store.merges == 1  # the first delete sorted it
        kept = [f"f{i:02d}" for i in range(40) if i not in (3, 17, 0, 39, 21)]
        assert [k[2] for k, _ in store.scan_prefix(("E", 1))] == kept
        assert store.merges == 1

    def test_in_order_appends_keep_the_directory_sorted(self):
        store = filled()
        assert len(list(store.scan_prefix(("E", 1)))) == 10
        store.put(("E", 1, "f10"), 10)
        store.put(("E", 1, "f11"), 11)
        assert [k[2] for k, _ in store.scan_prefix(("E", 1))][-3:] == ["f09", "f10", "f11"]
        assert store.merges == 0

    def test_empty_directory_scan_never_walks_the_store(self):
        store = filled()
        assert list(store.scan_prefix(("E", 2))) == []
        assert store.merges == 0

    def test_fallback_sorts_are_counted_so_the_cliff_shows(self):
        """One key two fields below a prefix anywhere in the store, or a key
        equal to the prefix, sends scans of it to the whole-store fallback
        on every call; ``merges`` must say so (DESIGN.md §11)."""
        store = filled()
        list(store.scan_prefix(("E", 1)))
        assert store.merges == 0
        store.put(("E", 9, "sub", "deep"), 0)
        for paid in (1, 2):  # every call, not only the first after a write
            assert len(list(store.scan_prefix(("E", 1)))) == 10
            assert store.merges == paid
        store.delete(("E", 9, "sub", "deep"))
        list(store.scan_prefix(("E", 1)))
        assert store.merges == 2
        store.put(("E", 1), "self")
        assert [k for k, _ in store.scan_prefix(("E", 1))][:2] == [("E", 1), ("E", 1, "f00")]
        assert store.merges == 3
