"""Batched change-log bookkeeping and the live-indexed change-log table.

``ChangeLog.extend`` is a batched ``append``; ``detach`` and ``load``
remove or replace entries with their WAL LSNs.  ``ChangeLogTable`` keeps
a lazily-filtered live index of non-empty groups instead of rescanning
every log (DESIGN.md §11).
"""

from repro.core.changelog import ChangeLog, ChangeLogEntry, ChangeLogTable, ChangeOp


def entry(ts, op=ChangeOp.CREATE, name="f"):
    return ChangeLogEntry(timestamp=ts, op=op, name=name)


class TestChangeLogBatch:
    def test_extend_equals_repeated_append(self):
        a = ChangeLog(dir_id=1, fingerprint=7)
        b = ChangeLog(dir_id=1, fingerprint=7)
        entries = [entry(2.0), entry(8.0, ChangeOp.RMDIR, "d"), entry(4.0)]
        for i, e in enumerate(entries):
            a.append(e, i, now=10.0)
        b.extend(entries, [0, 1, 2], now=10.0)
        assert a.entries == b.entries
        assert a.wal_lsns == b.wal_lsns
        assert a.last_append_at == b.last_append_at

    def test_detach_removes_one_entry_and_its_lsn(self):
        log = ChangeLog(dir_id=1, fingerprint=7)
        log.append(entry(5.0, name="a"), 0, now=5.0)
        log.append(entry(9.0, name="b"), 1, now=9.0)
        assert log.detach(entry(9.0, name="b"), 1)
        assert (log.entries, log.wal_lsns) == ([entry(5.0, name="a")], [0])
        # Detaching an entry that was already drained is a harmless no-op.
        assert not log.detach(entry(9.0, name="b"), 1)
        assert log.detach(entry(5.0, name="a"), 0)
        assert (log.entries, log.wal_lsns) == ([], [])

    def test_load_replaces_contents(self):
        log = ChangeLog(dir_id=1, fingerprint=7)
        log.append(entry(99.0), 5, now=99.0)
        loaded = [entry(2.0), entry(6.0, ChangeOp.DELETE, "g")]
        log.load(loaded, [10, 11])
        assert (log.entries, log.wal_lsns) == (loaded, [10, 11])


class TestChangeLogTableLiveIndex:
    def test_non_empty_groups_tracks_appends_and_drains(self):
        table = ChangeLogTable()
        table.append(1, 7, entry(1.0), 0, now=1.0)
        table.extend(2, 7, [entry(2.0), entry(3.0)], [1, 2], now=3.0)
        table.append(3, 9, entry(4.0), 3, now=4.0)
        assert sorted(table.non_empty_groups()) == [7, 9]
        assert table.pending_entries() == 4
        drained = table.drain_group(7)
        assert sorted(d for d, _, _ in drained) == [1, 2]
        assert table.non_empty_groups() == [9]
        assert table.pending_entries() == 1

    def test_direct_drain_leaves_stale_superset_that_reads_gc(self):
        # The push path drains ChangeLog objects directly, behind the
        # table's back; the live index must filter (and GC) those lazily.
        table = ChangeLogTable()
        log = table.append(1, 7, entry(1.0), 0, now=1.0)
        log.drain()
        assert table.logs_in_group(7) == []
        assert table.non_empty_groups() == []
        assert table.pending_entries() == 0
        # Drained groups resurrect cleanly on the next append.
        table.append(1, 7, entry(2.0), 1, now=2.0)
        assert table.non_empty_groups() == [7]

    def test_drain_all_covers_every_live_group(self):
        table = ChangeLogTable()
        table.append(1, 7, entry(1.0), 0, now=1.0)
        table.append(2, 9, entry(2.0), 1, now=2.0)
        drained = table.drain_all()
        assert sorted((d, fp) for d, fp, _, _ in drained) == [(1, 7), (2, 9)]
        assert table.non_empty_groups() == []
        assert table.pending_entries() == 0

    def test_empty_extend_does_not_mark_live(self):
        table = ChangeLogTable()
        table.extend(1, 7, [], [], now=1.0)
        assert table.non_empty_groups() == []

    def test_load_marks_live(self):
        table = ChangeLogTable()
        table.load(1, 7, [entry(1.0)], [0])
        assert table.non_empty_groups() == [7]
        assert table.pending_entries() == 1
