"""Ordered in-memory key-value store: the RocksDB stand-in.

Each metadata server stores its partition of inodes and directory entries
in one of these (§3.2).  The API mirrors the subset of RocksDB the paper
relies on:

* ``put`` / ``get`` / ``delete`` on ordered keys;
* prefix ``scan`` (directory entry listing: all entries share the parent
  directory's *pid* as key prefix, Table 3);
* local transactions that apply atomically (used to update a directory
  inode's timestamps and size together, §4.3);
* WAL-backed crash recovery: a crash destroys the memtable, recovery
  replays the WAL (§4.4.2, "servers maintain data structures in DRAM").
  Records: ``"put"`` ``(key, value)``, ``"delete"`` ``key``, and one
  ``"txn"`` ``(keys, values)`` per transaction, ``DELETED`` for a delete.

Keys are ``(pid, name)`` tuples ordered lexicographically; values are
opaque objects.

Table 3 keys every entry by its parent's id so that a directory read is
one prefix scan whose cost follows the directory, not the server's whole
partition.  The layout keeps that property (DESIGN.md §11):

* ``_mem`` — the authoritative live map (O(1) point ops);
* ``_dirs`` — the live keys grouped by immediate parent prefix
  (``key[:-1]``), each key held once in one ``list`` per directory.  A
  put appends; one that sorts below the list's last key puts the
  directory in ``_unsorted``.  The first scan or delete of an unsorted
  directory sorts it in place; timsort finds the old sorted run at the
  front, so a write burst costs about O(k + b log b).  A delete on a
  sorted list bisects.  Writes to other directories never touch it;
* ``_len_counts`` — live keys by length: tells whether any key lies more
  than one field below a prefix, the one case ``_dirs`` cannot answer.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..errors import KeyNotFound
from .txn import DELETED, Transaction
from .wal import WriteAheadLog

__all__ = ["KVStore"]

Key = Tuple[Any, ...]

# Keys of one directory differ in their last field only: order by that.
_LAST_FIELD = itemgetter(-1)


class KVStore:
    """An ordered KV store with write-ahead logging."""

    def __init__(self):
        self._mem: Dict[Key, Any] = {}
        self._dirs: Dict[Key, List[Key]] = {}
        self._unsorted: Set[Key] = set()
        self._len_counts: Dict[int, int] = {}
        self.wal = WriteAheadLog()
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.scans = 0
        self.merges = 0  # sorts paid: one directory's, or the fallback's whole-store one

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, key: Key) -> bool:
        return key in self._mem

    # -- point operations -------------------------------------------------
    def put(self, key: Key, value: Any, log: bool = True) -> None:
        """Insert or overwrite *key*; WAL-logged unless *log* is False."""
        if log:
            self.wal.append("put", (key, value))
        self._apply_put(key, value)
        self.puts += 1

    def get(self, key: Key) -> Any:
        """Return the live value for *key*; raises :class:`KeyNotFound`."""
        self.gets += 1
        try:
            return self._mem[key]
        except KeyError:
            raise KeyNotFound(repr(key)) from None

    def get_or_none(self, key: Key) -> Optional[Any]:
        self.gets += 1
        return self._mem.get(key)

    def delete(self, key: Key) -> bool:
        """Remove *key*; returns False when absent (no error, like RocksDB)."""
        self.wal.append("delete", key)
        self.deletes += 1
        return self._apply_delete(key)

    # -- scans ---------------------------------------------------------------
    def scan_prefix(self, prefix: Key) -> Iterator[Tuple[Key, Any]]:
        """Iterate (key, value) over all keys whose leading fields equal *prefix*.

        With keys of shape ``(pid, name)``, ``scan_prefix((pid,))`` lists a
        directory's entries in name order.  The keys are a copy taken at
        the call, so the caller may write to the store while it iterates.
        """
        self.scans += 1
        if self._is_flat(prefix):
            keys = self._dirs.get(prefix, ())
            if prefix in self._unsorted:
                self._sort(prefix, keys)
            keys = keys[:]  # the live index changes under later writes
        else:
            n = len(prefix)
            keys = sorted(k for k in self._mem if k[:n] == prefix)
            self.merges += 1  # O(store) on every call: keep it visible
        return zip(keys, map(self._mem.__getitem__, keys))

    def _is_flat(self, prefix: Key) -> bool:
        """True when ``_dirs[prefix]`` is everything under *prefix*: no live
        key equals it or extends it by two or more fields.  Server reads of
        one directory always are; ``("D",)`` / ``()`` (migration, recovery)
        are not and fall back to sorting ``_mem``.  The test is store-wide:
        one live key that deep anywhere sends every shorter prefix to the
        fallback (DESIGN.md §11, "the cliff")."""
        if prefix in self._mem:
            return False
        deep = len(prefix) + 1
        for length, live in self._len_counts.items():
            if live and length > deep:
                return False
        return True

    # -- transactions -----------------------------------------------------------
    def transaction(self) -> Transaction:
        """Begin a local transaction; commit applies all ops atomically."""
        return Transaction(self)

    def commit_ops(self, staged: Dict[Key, Any]) -> None:
        """Apply a transaction's staged map (each key's last write,
        ``DELETED`` for a delete) under a single WAL record."""
        keys = tuple(staged)
        values = tuple(staged.values())
        self.wal.append("txn", (keys, values))
        deletes = self._apply_txn(keys, values)
        self.deletes += deletes
        self.puts += len(keys) - deletes

    # -- snapshots (checkpointing) ---------------------------------------
    def snapshot(self) -> Dict[Key, Any]:
        """A consistent copy of the live key space (checkpoint image)."""
        return dict(self._mem)

    def restore(self, image: Dict[Key, Any]) -> None:
        """Replace the memtable with a checkpoint image."""
        self.crash()
        for key, value in image.items():
            self._apply_put(key, value)

    # -- crash / recovery ----------------------------------------------------
    def crash(self) -> None:
        """Lose all DRAM state; the WAL survives."""
        self._mem.clear()
        self._dirs.clear()
        self._unsorted.clear()
        self._len_counts.clear()

    def recover(self) -> int:
        """Replay unapplied WAL records; returns the number replayed."""
        replayed = 0
        for record in self.wal.replay():
            kind, payload = record.kind, record.payload
            if kind == "txn":
                self._apply_txn(*payload)
            elif kind == "put":
                self._apply_put(*payload)
            elif kind == "delete":
                self._apply_delete(payload)
            else:
                continue  # foreign kinds (change-log, agg) replay themselves
            replayed += 1
        return replayed

    # -- internals ---------------------------------------------------------
    def _apply_put(self, key: Key, value: Any) -> None:
        mem = self._mem
        if key not in mem:
            parent = key[:-1]
            keys = self._dirs.get(parent)
            if keys is None:
                self._dirs[parent] = [key]
            else:
                if key < keys[-1]:
                    self._unsorted.add(parent)
                keys.append(key)
            len_counts = self._len_counts
            n = len(key)
            len_counts[n] = len_counts.get(n, 0) + 1
        mem[key] = value

    def _apply_delete(self, key: Key) -> bool:
        mem = self._mem
        if key not in mem:
            return False
        del mem[key]
        parent = key[:-1]
        keys = self._dirs[parent]
        if len(keys) == 1:
            # One key is in order: an emptied directory was never unsorted.
            del self._dirs[parent]
        else:
            if parent in self._unsorted:
                self._sort(parent, keys)
            del keys[bisect.bisect_left(keys, key)]
        self._len_counts[len(key)] -= 1
        return True

    def _apply_txn(self, keys: Tuple[Key, ...], values: Tuple[Any, ...]) -> int:
        """Apply a transaction's last writes; returns how many were deletes."""
        deletes = 0
        for key, value in zip(keys, values):
            if value is DELETED:
                self._apply_delete(key)
                deletes += 1
            else:
                self._apply_put(key, value)
        return deletes

    def _sort(self, parent: Key, keys: List[Key]) -> None:
        """Sort an unsorted directory in place: the one sort it owes."""
        keys.sort(key=_LAST_FIELD)
        self._unsorted.remove(parent)
        self.merges += 1
