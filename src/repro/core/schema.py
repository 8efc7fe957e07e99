"""Metadata scheme: keys, inodes, fingerprints, and partitioning (§3.3).

Every metadata object is a key-value pair (Table 3):

* **Dir Metadata** — key ``("D", pid, name)``, value :class:`DirInode`;
  partitioned by the directory's 49-bit fingerprint so that all
  directories in a *fingerprint group* live on the same server.
* **Dir Entry** — key ``("E", dir_id, entry_name)``, value
  :class:`DirEntry`; always stored on the same server as the directory
  (key prefix is the directory's own id, so the entry list co-locates and
  prefix-scans in name order).
* **File Metadata** — key ``("F", pid, name)``, value :class:`FileInode`;
  partitioned by hashing ``(pid, name)`` — per-file granularity for load
  balance.

Directory ids are 256-bit values, unique and permanent (assigned at
mkdir).  Fingerprints are 49 bits — 17 set-index bits + 32 tag bits — with
tag 0 remapped (0 marks an empty switch register).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import NamedTuple, Tuple

from ..net.packet import FINGERPRINT_BITS

__all__ = [
    "ROOT_ID",
    "ROOT_NAME",
    "DirInode",
    "FileInode",
    "DirEntry",
    "dir_entry",
    "dir_meta_key",
    "dir_entry_key",
    "file_meta_key",
    "new_dir_id",
    "fingerprint_of",
    "file_cache_fingerprint",
    "file_shard_of",
    "root_inode",
]

#: The root directory's permanent 256-bit id and reserved parent id.
ROOT_ID = 1
ROOT_NAME = "/"
_ROOT_PARENT = 0

_TAG_MASK = (1 << 32) - 1


def _h256(*parts) -> int:
    digest = hashlib.sha256("\x00".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest, "big")


def new_dir_id(pid: int, name: str, nonce: int) -> int:
    """A unique, permanent 256-bit directory id (§3.3).

    *nonce* (a server-local counter) keeps ids unique even if the same
    (pid, name) is created, removed, and created again.
    """
    return _h256("dirid", pid, name, nonce) % (1 << 256)


@lru_cache(maxsize=1 << 16)
def fingerprint_of(pid: int, name: str) -> int:
    """The 49-bit fingerprint of directory *name* under parent *pid*.

    Multiple directories may share a fingerprint (a *fingerprint group*).
    A fingerprint whose 32 tag bits are zero is remapped to tag 1, since
    the switch reserves register value 0 for "empty".

    Pure and hot (every path resolution hashes its parent), so results are
    memoised — a hotspot workload asks for the same directory's
    fingerprint once per operation.
    """
    fp = _h256("fp", pid, name) & ((1 << FINGERPRINT_BITS) - 1)
    if fp & _TAG_MASK == 0:
        fp |= 1
    return fp


# The per-op memos below are reused within one op, not across ops: the
# client hashes a name to route it and the serving server re-hashes it
# (to check ownership, or to evict its cache line) while the op is still
# in flight.  A bound this size keeps that pair a hit and keeps no copy of
# the namespace's names (DESIGN.md §11).
_PER_OP_MEMO = 1 << 12


@lru_cache(maxsize=_PER_OP_MEMO)
def file_cache_fingerprint(pid: int, name: str) -> int:
    """The 49-bit dentry-cache key for file *name* under parent *pid*.

    Stat/open results live in the in-switch hot-dentry cache keyed by
    this fingerprint; a **distinct salt** from :func:`fingerprint_of`
    keeps a file and a subdirectory with the same (pid, name) from
    colliding onto one cache line.  Tag 0 is remapped exactly as for
    directory fingerprints (register value 0 means "empty").
    """
    fp = _h256("file-cache", pid, name) & ((1 << FINGERPRINT_BITS) - 1)
    if fp & _TAG_MASK == 0:
        fp |= 1
    return fp


@lru_cache(maxsize=_PER_OP_MEMO)
def _file_hash(pid: int, name: str) -> int:
    """The per-file routing hash (salt ``"file-owner"``) and the one
    routing memo.  Its job is one op's pair of asks — the client routes
    the name, then the server re-checks it — so the sha256 runs once per
    op, and :func:`file_shard_of` is a ``%`` on it (``num_shards`` is
    fixed for a run; what moves is the shard → server table in the
    membership view).  It is bounded to that window: a name hashed by
    ``bootstrap`` or by an op long done is recomputed on its next use."""
    return _h256("file-owner", pid, name)


def file_shard_of(pid: int, name: str, num_shards: int) -> int:
    """Per-file hash partitioning into the fixed shard space: with the
    bootstrap shard table (shard ``s`` → server ``s % num_servers``) a
    file lives on server ``_file_hash(pid, name) % num_servers``."""
    return _file_hash(pid, name) % num_shards


# -- keys ----------------------------------------------------------------------

def dir_meta_key(pid: int, name: str) -> Tuple[str, int, str]:
    return ("D", pid, name)


def dir_entry_key(dir_id: int, entry_name: str) -> Tuple[str, int, str]:
    return ("E", dir_id, entry_name)


def file_meta_key(pid: int, name: str) -> Tuple[str, int, str]:
    return ("F", pid, name)


# -- values -----------------------------------------------------------------
#
# Value records are immutable tuples (DESIGN.md §11): a tuple is built in
# one allocation with no per-field ``__setattr__``, keeps no ``__dict__``,
# hashes and compares as the plain tuple of its fields, and pickles.  Hot
# paths construct them positionally; copies go through the methods below.

class DirInode(NamedTuple):
    """Directory metadata (the "Dir Metadata" value of Table 3)."""

    id: int
    pid: int
    name: str
    fingerprint: int
    perm: int = 0o755
    ctime: float = 0.0
    mtime: float = 0.0
    entry_count: int = 0

    def touched(self, mtime: float, entry_delta: int = 0) -> "DirInode":
        """Copy with updated mtime and entry count (inode update)."""
        id_, pid, name, fp, perm, ctime, old_mtime, count = self
        return DirInode(
            id_, pid, name, fp, perm, ctime,
            mtime if mtime > old_mtime else old_mtime, count + entry_delta,
        )

    def moved(self, pid: int, name: str) -> "DirInode":
        """Copy under a new parent and name (rename): a directory's id is
        permanent, its fingerprint follows the new (pid, name)."""
        return self._replace(pid=pid, name=name, fingerprint=fingerprint_of(pid, name))


class FileInode(NamedTuple):
    """Regular-file metadata (the "File Metadata" value of Table 3)."""

    pid: int
    name: str
    perm: int = 0o644
    ctime: float = 0.0
    mtime: float = 0.0
    size: int = 0

    def moved(self, pid: int, name: str) -> "FileInode":
        """Copy under a new parent and name (rename)."""
        return self._replace(pid=pid, name=name)


class DirEntry(NamedTuple):
    """One directory-entry value: file type and permissions (Table 3).

    Build it with :func:`dir_entry`, which shares one object per value.
    """

    is_dir: bool
    perm: int


@lru_cache(maxsize=None)
def dir_entry(is_dir: bool, perm: int) -> DirEntry:
    """The one shared :class:`DirEntry` for ``(is_dir, perm)``: every entry
    of a directory listing holds one of a handful of values, so the store
    keeps a reference per entry instead of a record.  The memo holds one
    record per value in use, two per permission word at most."""
    return DirEntry(is_dir, perm)


def root_inode() -> DirInode:
    """The preinstalled root directory inode."""
    return DirInode(
        id=ROOT_ID,
        pid=_ROOT_PARENT,
        name=ROOT_NAME,
        fingerprint=fingerprint_of(_ROOT_PARENT, ROOT_NAME),
    )
