"""Unit + property tests for the metadata scheme."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DirInode,
    FSConfig,
    FileInode,
    ROOT_ID,
    dir_entry_key,
    dir_meta_key,
    file_meta_key,
    fingerprint_of,
    new_dir_id,
    root_inode,
)
from repro.core.membership import bootstrap_view
from repro.core.schema import _file_hash
from repro.net import FINGERPRINT_BITS

names = st.text(alphabet="abcdefghij0123456789_-", min_size=1, max_size=12)
pids = st.integers(min_value=0, max_value=(1 << 256) - 1)


def _view(num_servers):
    """The epoch-0 view of *num_servers* servers and its config."""
    config = FSConfig(num_servers=num_servers)
    return config, bootstrap_view(config)


class TestFingerprints:
    def test_deterministic(self):
        assert fingerprint_of(1, "a") == fingerprint_of(1, "a")

    def test_distinct_inputs_differ(self):
        assert fingerprint_of(1, "a") != fingerprint_of(1, "b")
        assert fingerprint_of(1, "a") != fingerprint_of(2, "a")

    @given(pid=pids, name=names)
    def test_range_and_nonzero_tag(self, pid, name):
        fp = fingerprint_of(pid, name)
        assert 0 <= fp < (1 << FINGERPRINT_BITS)
        assert fp & 0xFFFF_FFFF != 0  # tag 0 is reserved for empty registers

    @given(pid=pids, name=names, n=st.integers(min_value=1, max_value=64))
    def test_fingerprint_group_affinity(self, pid, name, n):
        """Directories with equal fingerprints always share an owner."""
        fp = fingerprint_of(pid, name)
        config, view = _view(n)
        assert view.dir_owner(pid, name) == view.dir_owner_by_fp(fp)
        assert view.dir_owner_by_fp(fp) == config.server_addr(fp % n)


class TestPartitioning:
    @given(pid=pids, name=names, n=st.integers(min_value=1, max_value=64))
    def test_file_owner_in_range(self, pid, name, n):
        config, view = _view(n)
        assert view.file_owner(pid, name) == config.server_addr(_file_hash(pid, name) % n)

    def test_file_partition_spreads(self):
        """Per-file hashing spreads a directory's files over servers."""
        _, view = _view(8)
        owners = {view.file_owner(7, f"f{i}") for i in range(200)}
        assert len(owners) == 8


class TestDirIds:
    def test_unique_across_nonces(self):
        assert new_dir_id(1, "a", 1) != new_dir_id(1, "a", 2)

    def test_deterministic_for_same_nonce(self):
        assert new_dir_id(1, "a", 0) == new_dir_id(1, "a", 0)

    @given(pid=pids, name=names)
    def test_256_bit_range(self, pid, name):
        assert 0 <= new_dir_id(pid, name, 0) < (1 << 256)


class TestKeysAndInodes:
    def test_key_namespaces_disjoint(self):
        assert dir_meta_key(1, "x")[0] != file_meta_key(1, "x")[0]
        assert dir_entry_key(1, "x")[0] == "E"

    def test_dir_inode_touched(self):
        d = DirInode(id=5, pid=1, name="d", fingerprint=9, mtime=10.0, entry_count=3)
        d2 = d.touched(20.0, entry_delta=2)
        assert d2.mtime == 20.0 and d2.entry_count == 5
        assert d.mtime == 10.0  # frozen original untouched

    def test_touched_mtime_never_regresses(self):
        d = DirInode(id=5, pid=1, name="d", fingerprint=9, mtime=30.0)
        assert d.touched(20.0).mtime == 30.0

    def test_root_inode(self):
        root = root_inode()
        assert root.id == ROOT_ID
        assert root.name == "/"
        assert root.entry_count == 0

    def test_file_inode_defaults(self):
        f = FileInode(pid=1, name="f")
        assert f.size == 0 and f.perm == 0o644
