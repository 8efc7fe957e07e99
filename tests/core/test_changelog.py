"""Unit tests for change-logs, and the recast differential (§4.3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChangeLogEntry, ChangeLogTable, ChangeOp, FSConfig, SwitchFSCluster
from repro.core.changelog import ChangeLog
from repro.core.schema import dir_entry, dir_entry_key


def entry(ts, op=ChangeOp.CREATE, name="f"):
    return ChangeLogEntry(timestamp=ts, op=op, name=name)


class TestChangeLog:
    def test_append_and_len(self):
        log = ChangeLog(dir_id=1, fingerprint=10)
        log.append(entry(1.0), lsn=0, now=1.0)
        log.append(entry(2.0), lsn=1, now=2.0)
        assert len(log) == 2
        assert log.last_append_at == 2.0

    def test_drain_empties(self):
        log = ChangeLog(dir_id=1, fingerprint=10)
        log.append(entry(1.0), lsn=5, now=1.0)
        entries, lsns = log.drain()
        assert len(entries) == 1 and lsns == [5]
        assert len(log) == 0


class TestChangeOp:
    def test_adds_entry(self):
        assert ChangeOp.CREATE.adds_entry and ChangeOp.MKDIR.adds_entry
        assert not ChangeOp.DELETE.adds_entry


class TestChangeLogTable:
    def test_group_indexing(self):
        table = ChangeLogTable()
        table.append(dir_id=1, fingerprint=99, entry=entry(1.0), lsn=0, now=1.0)
        table.append(dir_id=2, fingerprint=99, entry=entry(2.0), lsn=1, now=2.0)
        table.append(dir_id=3, fingerprint=55, entry=entry(3.0), lsn=2, now=3.0)
        group = table.logs_in_group(99)
        assert sorted(log.dir_id for log in group) == [1, 2]
        assert table.pending_entries() == 3

    def test_drain_group_only_touches_group(self):
        table = ChangeLogTable()
        table.append(1, 99, entry(1.0), 0, 1.0)
        table.append(3, 55, entry(2.0), 1, 2.0)
        drained = table.drain_group(99)
        assert len(drained) == 1 and drained[0][0] == 1
        assert table.pending_entries() == 1

    def test_empty_logs_excluded_from_group(self):
        table = ChangeLogTable()
        table.log_for(1, 99)
        assert table.logs_in_group(99) == []
        assert table.non_empty_groups() == []

    def test_drain_all(self):
        table = ChangeLogTable()
        table.append(1, 99, entry(1.0), 0, 1.0)
        table.append(3, 55, entry(2.0), 1, 2.0)
        drained = table.drain_all()
        assert len(drained) == 2
        assert table.pending_entries() == 0

    def test_clear(self):
        table = ChangeLogTable()
        table.append(1, 99, entry(1.0), 0, 1.0)
        table.clear()
        assert table.pending_entries() == 0


# -- differential: the recast apply against the per-entry apply -------------

NAMES = "abcd"
batch_entry = st.tuples(
    st.integers(min_value=-2, max_value=2),  # mtime offset: ties, some below
    st.sampled_from(list(ChangeOp)),
    st.sampled_from(NAMES),
)


def apply_batch(recast, present, batch):
    """One server, one directory holding *present*; apply *batch* through
    ``_apply_logs``.  Returns the entry list, mtime and entry_count."""
    cluster = SwitchFSCluster(FSConfig(num_servers=1, recast=recast))
    fs = cluster.client(0)
    cluster.run_op(fs.mkdir("/d"))
    (server,) = cluster.servers
    kv = server.kv
    ((dir_id, key),) = [(d, k) for d, k in server._dir_index.items() if kv.get(k).name == "d"]
    for name in present:
        kv.put(dir_entry_key(dir_id, name), dir_entry(False, 0o644))
    inode = kv.get(key).touched(0.0, len(present))
    kv.put(key, inode)
    entries = [
        ChangeLogEntry(inode.mtime + offset, op, name, op in (ChangeOp.MKDIR, ChangeOp.RMDIR))
        for offset, op, name in batch
    ]
    cluster.run_op(server._apply_logs([(dir_id, entries, None)]))
    inode = kv.get(key)
    return list(kv.scan_prefix(("E", dir_id))), inode.mtime, inode.entry_count


@settings(max_examples=200, deadline=None)
@given(
    present=st.sets(st.sampled_from(NAMES)),
    batch=st.lists(batch_entry, min_size=1, max_size=12),
)
def test_recast_equivalent_to_raw_replay(present, batch):
    """DESIGN §6 invariant 4: a batch merged from several servers, in no
    timestamp order, leaves the directory exactly as the +Async path's
    one-inode-transaction-per-entry replay in timestamp order does."""
    listing, mtime, count = apply_batch(True, present, batch)
    assert (listing, mtime) == apply_batch(False, present, batch)[:2]
    assert count == len(listing)
