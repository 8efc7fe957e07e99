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

Keys are ``(pid, name)`` tuples ordered lexicographically; values are
opaque objects.

Table 3 keys every entry by its parent's id so that a directory read is
one prefix scan whose cost follows the directory, not the server's whole
partition.  The layout keeps that property (DESIGN.md §11):

* ``_mem`` — the authoritative live map (O(1) point ops);
* ``_dirs`` — the live keys grouped by immediate parent prefix
  (``key[:-1]``), each key held once.  A directory is a sorted ``list``
  while its order is known — a scan bisects and slices it — and an
  insertion-ordered ``dict`` after a write broke that order (an
  out-of-order put, or a delete).  The first scan of a dict sorts it back
  into a list; timsort finds the old sorted run at the front, so a write
  burst costs about O(k + b log b).  In-order appends keep the list.
  Writes to other directories never touch it;
* ``_len_counts`` — live keys by length: tells whether any key lies more
  than one field below a prefix, the one case ``_dirs`` cannot answer.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import KeyNotFound
from .txn import Transaction
from .wal import WriteAheadLog

__all__ = ["KVStore"]

Key = Tuple[Any, ...]

# Keys of one directory differ in their last field only: order by that.
_LAST_FIELD = itemgetter(-1)


class KVStore:
    """An ordered KV store with write-ahead logging."""

    def __init__(self, wal: Optional[WriteAheadLog] = None, log_writes: bool = True):
        self._mem: Dict[Key, Any] = {}
        self._dirs: Dict[Key, Union[List[Key], Dict[Key, None]]] = {}
        self._len_counts: Dict[int, int] = {}
        self.wal = wal if wal is not None else WriteAheadLog()
        self._log_writes = log_writes
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
        if log and self._log_writes:
            self.wal.append("kv", ("put", key, value))
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

    def delete(self, key: Key, log: bool = True) -> bool:
        """Remove *key*; returns False when absent (no error, like RocksDB)."""
        if log and self._log_writes:
            self.wal.append("kv", ("delete", key, None))
        self.deletes += 1
        return self._apply_delete(key)

    # -- scans ---------------------------------------------------------------
    def scan_prefix(
        self,
        prefix: Key,
        start: Optional[Key] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Tuple[Key, Any]]:
        """Iterate (key, value) over all keys whose leading fields equal *prefix*.

        With keys of shape ``(pid, name)``, ``scan_prefix((pid,))`` lists a
        directory's entries in name order.

        *start* resumes a paginated scan: only keys ``>= prefix + start``
        are yielded (pass the last key's suffix fields from the previous
        page, e.g. ``start=(last_name,)``, and skip the first result — or
        bump the token yourself).  *limit* caps the number of yielded
        entries.  Both default to the full range.
        """
        self.scans += 1
        if self._is_flat(prefix):
            keys = self._dirs.get(prefix, ())
            if type(keys) is dict:
                self._dirs[prefix] = keys = sorted(keys, key=_LAST_FIELD)
                self.merges += 1
        else:
            n = len(prefix)
            keys = sorted(k for k in self._mem if k[:n] == prefix)
            self.merges += 1  # O(store) on every call: keep it visible
        i = 0 if start is None else bisect.bisect_left(keys, prefix + tuple(start))
        end = len(keys) if limit is None else i + limit
        page = keys[i:end]
        return zip(page, map(self._mem.__getitem__, page))

    def count_prefix(self, prefix: Key) -> int:
        """The number of live keys extending *prefix* — O(1) on the
        ``statdir`` hot path; a key-only pass over the store for prefixes
        that deeper keys extend (no sort, no value materialisation)."""
        if self._is_flat(prefix):
            return len(self._dirs.get(prefix, ()))
        n = len(prefix)
        return sum(1 for k in self._mem if k[:n] == prefix)

    def _is_flat(self, prefix: Key) -> bool:
        """True when ``_dirs[prefix]`` is everything under *prefix*: no live
        key equals it or extends it by two or more fields.  Server reads of
        one directory always are; ``("D",)`` / ``()`` (migration, recovery)
        are not and fall back to filtering ``_mem``.  The test is store-wide:
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

    def commit_ops(self, ops: List[Tuple[str, Key, Any]]) -> None:
        """Apply a transaction's ops under a single WAL record.

        Called by :meth:`Transaction.commit`; usable directly for
        replaying an already-validated op list (recovery).
        """
        if self._log_writes:
            self.wal.append("txn", list(ops))
        for op, key, value in ops:
            if op == "put":
                self._apply_put(key, value)
                self.puts += 1
            elif op == "delete":
                self._apply_delete(key)
                self.deletes += 1
            else:
                raise ValueError(f"unknown txn op: {op}")

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
        self._len_counts.clear()

    def recover(self) -> int:
        """Replay unapplied WAL records; returns the number replayed."""
        replayed = 0
        for record in self.wal.replay():
            if record.kind == "kv":
                op, key, value = record.payload
                if op == "put":
                    self._apply_put(key, value)
                else:
                    self._apply_delete(key)
                replayed += 1
            elif record.kind == "txn":
                for op, key, value in record.payload:
                    if op == "put":
                        self._apply_put(key, value)
                    else:
                        self._apply_delete(key)
                replayed += 1
            # Foreign record kinds (e.g. change-log) belong to other
            # components sharing the WAL; they replay themselves.
        return replayed

    # -- internals ---------------------------------------------------------
    def _apply_put(self, key: Key, value: Any) -> None:
        mem = self._mem
        if key not in mem:
            parent = key[:-1]
            keys = self._dirs.get(parent)
            if keys is None:
                self._dirs[parent] = [key]
            elif type(keys) is dict:
                keys[key] = None
            elif keys[-1] < key:
                keys.append(key)  # in-order append: the list stays sorted
            else:
                self._dirs[parent] = keys = dict.fromkeys(keys)
                keys[key] = None
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
            del self._dirs[parent]
        else:
            if type(keys) is list:
                self._dirs[parent] = keys = dict.fromkeys(keys)
            del keys[key]
        self._len_counts[len(key)] -= 1
        return True
