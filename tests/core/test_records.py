"""The metadata value records are immutable tuples (DESIGN.md §11).

`FileInode`, `DirInode`, `DirEntry`, `ChangeLogEntry` and
`StaleSetHeader` are tuple records: assignment raises, a record hashes and
pickles as the plain tuple of its fields, no two record types ever compare
equal, the copy methods keep the type, and `dir_entry` shares one
`DirEntry` per value.
"""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ChangeLogEntry, ChangeOp, DirEntry, DirInode, FileInode
from repro.core.schema import dir_entry, fingerprint_of
from repro.net import FINGERPRINT_BITS, StaleSetHeader, StaleSetOp

ids = st.integers(min_value=0, max_value=(1 << 64) - 1)
names = st.text(alphabet="abc_0", min_size=1, max_size=6)
perms = st.sampled_from([0o644, 0o755, 0o600])
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
fingerprints = st.integers(min_value=0, max_value=(1 << FINGERPRINT_BITS) - 1)

RECORDS = {
    FileInode: st.builds(FileInode, ids, names, perms, times, times, st.integers(0, 1 << 20)),
    DirInode: st.builds(
        DirInode, ids, ids, names, fingerprints, perms, times, times, st.integers(0, 1 << 20)
    ),
    DirEntry: st.builds(dir_entry, st.booleans(), perms),
    ChangeLogEntry: st.builds(
        ChangeLogEntry, times, st.sampled_from(list(ChangeOp)), names, st.booleans(), perms
    ),
    StaleSetHeader: st.builds(
        StaleSetHeader, st.sampled_from(list(StaleSetOp)), fingerprints,
        st.integers(0, (1 << 32) - 1), st.sampled_from([0, 1]),
    ),
}
any_record = st.one_of(*RECORDS.values())


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
@given(data=st.data())
def test_record_is_an_immutable_hashable_picklable_tuple(cls, data):
    record = data.draw(RECORDS[cls])
    assert type(record) is cls and isinstance(record, tuple)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    assert {record: 1}[tuple(record)] == 1
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record


@given(a=any_record, b=any_record)
def test_records_of_different_types_never_compare_equal(a, b):
    if type(a) is not type(b):
        assert a != b and b != a


def test_repr_names_every_field():
    assert repr(FileInode(1, "f", 0o644, 2.0, 3.0)) == (
        "FileInode(pid=1, name='f', perm=420, ctime=2.0, mtime=3.0, size=0)"
    )
    assert repr(dir_entry(True, 0o755)) == "DirEntry(is_dir=True, perm=493)"
    assert repr(ChangeLogEntry(1.5, ChangeOp.CREATE, "n")) == (
        "ChangeLogEntry(timestamp=1.5, op=<ChangeOp.CREATE: 'create'>, name='n', "
        "is_dir=False, perm=420)"
    )
    assert repr(StaleSetHeader(StaleSetOp.QUERY, 0xAB, 7, 1)) == (
        "StaleSetHeader(op=<StaleSetOp.QUERY: 2>, fingerprint=0xab, seq=7, ret=1)"
    )


@given(inode=RECORDS[DirInode], mtime=times, delta=st.integers(-3, 3), pid=ids, name=names)
def test_dir_inode_copies_keep_the_type(inode, mtime, delta, pid, name):
    touched = inode.touched(mtime, delta)
    assert type(touched) is DirInode
    assert touched.mtime == max(inode.mtime, mtime)
    assert touched.entry_count == inode.entry_count + delta
    assert touched[:6] == inode[:6]
    moved = inode.moved(pid, name)
    assert type(moved) is DirInode
    assert moved == inode._replace(pid=pid, name=name, fingerprint=fingerprint_of(pid, name))


@given(inode=RECORDS[FileInode], pid=ids, name=names)
def test_file_inode_rename_copy_keeps_the_type(inode, pid, name):
    moved = inode.moved(pid, name)
    assert type(moved) is FileInode
    assert moved == (pid, name) + inode[2:]


@given(is_dir=st.booleans(), perm=perms)
def test_dir_entry_is_one_object_per_value(is_dir, perm):
    entry = dir_entry(is_dir, perm)
    assert entry is dir_entry(is_dir, perm)
    assert entry == DirEntry(is_dir, perm)
    assert entry is not dir_entry(not is_dir, perm)


def test_header_constructor_keeps_its_range_checks():
    with pytest.raises(ValueError):
        StaleSetHeader(StaleSetOp.INSERT, 1 << FINGERPRINT_BITS)
    with pytest.raises(ValueError):
        StaleSetHeader(StaleSetOp.INSERT, 1, 1 << 32)
    with pytest.raises(ValueError):
        StaleSetHeader(StaleSetOp.INSERT, 1, 0, 2)
