"""Per-directory change-logs (§4.3).

A server keeps one change-log per *scattered* remote directory.  Each
entry records a delayed parent-directory update: the timestamp, the
operation type, and the entry name (Figure 6).

The logs only hold entries; **recast** happens where they are applied,
in the owner's ``ChangeLogEngine._apply_recast``
(``core/server/changelog_engine.py``).  Directory updates commute, so
the new ``mtime`` is the batch's largest timestamp: one
directory-inode transaction plus one grouped entry-list transaction per
directory, with the per-entry CPU spread over the server's cores.
Without recast (the +Async ablation), each entry replays as its own
inode transaction, serialising on the inode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

__all__ = ["ChangeOp", "ChangeLogEntry", "ChangeLog", "ChangeLogTable"]


class ChangeOp(enum.Enum):
    """Delayed parent-directory update types."""

    CREATE = "create"
    DELETE = "delete"
    MKDIR = "mkdir"
    RMDIR = "rmdir"

    @property
    def adds_entry(self) -> bool:
        return self in (ChangeOp.CREATE, ChangeOp.MKDIR)


class ChangeLogEntry(NamedTuple):
    """One delayed directory update (Figure 6): an immutable tuple record,
    built positionally on the create path (DESIGN.md §11)."""

    timestamp: float
    op: ChangeOp
    name: str
    is_dir: bool = False
    perm: int = 0o644


@dataclass
class ChangeLog:
    """The change-log one server holds for one remote directory.

    Entries queue here in arrival order until a push, a pull or a flush
    drains them; the owner recasts the drained batch in
    ``ChangeLogEngine._apply_recast``.
    """

    dir_id: int
    fingerprint: int
    entries: List[ChangeLogEntry] = field(default_factory=list)
    # WAL LSNs of the records covering these entries (marked applied on ack).
    wal_lsns: List[int] = field(default_factory=list)
    last_append_at: float = 0.0
    # A push of this log waits for the group's change-log lock; no other
    # starts until it has the lock (``_schedule_push``).
    push_queued: bool = False

    def append(self, entry: ChangeLogEntry, lsn: int, now: float) -> None:
        self.entries.append(entry)
        self.wal_lsns.append(lsn)
        self.last_append_at = now

    def extend(self, entries: List[ChangeLogEntry], lsns: List[int], now: float) -> None:
        """Batched :meth:`append`: one shipment in one call."""
        self.entries.extend(entries)
        self.wal_lsns.extend(lsns)
        self.last_append_at = now

    def __len__(self) -> int:
        return len(self.entries)

    def drain(self) -> Tuple[List[ChangeLogEntry], List[int]]:
        """Remove and return all entries with their WAL LSNs."""
        entries, lsns = self.entries, self.wal_lsns
        self.entries, self.wal_lsns = [], []
        return entries, lsns

    def detach(self, entry: ChangeLogEntry, lsn: int) -> bool:
        """Remove one entry that was applied out-of-band (sync fallback).

        Returns False when the entry is gone (drained by a racing
        aggregation — harmless).
        """
        try:
            idx = self.entries.index(entry)
        except ValueError:
            return False
        self.entries.pop(idx)
        self.wal_lsns.remove(lsn)
        return True

    def load(self, entries: List[ChangeLogEntry], lsns: List[int]) -> None:
        """Replace contents wholesale (checkpoint restore)."""
        self.entries = list(entries)
        self.wal_lsns = list(lsns)


class ChangeLogTable:
    """All change-logs on one server, indexed by directory and fingerprint.

    The fingerprint index exists because aggregation operates on whole
    fingerprint groups (§4.1): a pull request names a fingerprint and must
    collect the logs of every directory in that group.

    A *live* index (``_live_by_fp``) tracks which logs are non-empty so
    that :meth:`non_empty_groups` — polled every sweep by the idle pusher —
    and :meth:`pending_entries` cost O(pending groups) instead of a rescan
    of every log ever created.  Every append path registers the log;
    a log drained behind the table's back (the push path drains the
    :class:`ChangeLog` directly) leaves a stale index entry, which reads
    filter and garbage-collect lazily (DESIGN.md §11).
    """

    def __init__(self):
        self._by_dir: Dict[int, ChangeLog] = {}
        # fp -> insertion-ordered set (dict keyed by dir_id) of logs that
        # *may* be non-empty; superset of the truly non-empty ones.
        self._live_by_fp: Dict[int, Dict[int, None]] = {}

    def log_for(self, dir_id: int, fingerprint: int) -> ChangeLog:
        """Get or create the change-log for *dir_id*."""
        log = self._by_dir.get(dir_id)
        if log is None:
            log = ChangeLog(dir_id=dir_id, fingerprint=fingerprint)
            self._by_dir[dir_id] = log
        return log

    def _mark_live(self, fingerprint: int, dir_id: int) -> None:
        group = self._live_by_fp.get(fingerprint)
        if group is None:
            self._live_by_fp[fingerprint] = {dir_id: None}
        else:
            group[dir_id] = None

    def append(
        self, dir_id: int, fingerprint: int, entry: ChangeLogEntry, lsn: int, now: float
    ) -> ChangeLog:
        log = self.log_for(dir_id, fingerprint)
        log.append(entry, lsn, now)
        self._mark_live(fingerprint, dir_id)
        return log

    def extend(
        self,
        dir_id: int,
        fingerprint: int,
        entries: List[ChangeLogEntry],
        lsns: List[int],
        now: float,
    ) -> ChangeLog:
        """Batched append: one shipment of entries in one bookkeeping pass."""
        log = self.log_for(dir_id, fingerprint)
        if entries:
            log.extend(entries, lsns, now)
            self._mark_live(fingerprint, dir_id)
        return log

    def load(
        self,
        dir_id: int,
        fingerprint: int,
        entries: List[ChangeLogEntry],
        lsns: List[int],
    ) -> ChangeLog:
        """Replace a log's contents wholesale (checkpoint restore)."""
        log = self.log_for(dir_id, fingerprint)
        log.load(entries, lsns)
        if entries:
            self._mark_live(fingerprint, dir_id)
        return log

    def logs_in_group(self, fingerprint: int) -> List[ChangeLog]:
        """All non-empty change-logs in a fingerprint group."""
        group = self._live_by_fp.get(fingerprint)
        if not group:
            return []
        by_dir = self._by_dir
        result = [by_dir[d] for d in group if len(by_dir[d])]
        if len(result) != len(group):
            # Garbage-collect entries drained behind the table's back.
            stale = [d for d in group if not len(by_dir[d])]
            for d in stale:
                del group[d]
            if not group:
                del self._live_by_fp[fingerprint]
        return result

    def drain_group(self, fingerprint: int) -> List[Tuple[int, List[ChangeLogEntry], List[int]]]:
        """Drain every log in the group; returns (dir_id, entries, lsns) triples."""
        result = []
        for log in self.logs_in_group(fingerprint):
            entries, lsns = log.drain()
            if entries:
                result.append((log.dir_id, entries, lsns))
        self._live_by_fp.pop(fingerprint, None)
        return result

    def drain_all(self) -> List[Tuple[int, int, List[ChangeLogEntry], List[int]]]:
        """Drain everything (switch-failure flush); (dir_id, fp, entries, lsns)."""
        result = []
        for fp in list(self._live_by_fp):
            for dir_id, entries, lsns in self.drain_group(fp):
                result.append((dir_id, fp, entries, lsns))
        return result

    def pending_entries(self) -> int:
        by_dir = self._by_dir
        return sum(
            len(by_dir[d]) for group in self._live_by_fp.values() for d in group
        )

    def non_empty_groups(self) -> List[int]:
        """Fingerprint groups with pending entries — O(live groups).

        Lazily drops groups whose logs were all drained directly (the
        stale-superset discipline of ``_live_by_fp``).
        """
        by_dir = self._by_dir
        live: List[int] = []
        dead_fps: List[int] = []
        for fp, group in self._live_by_fp.items():
            if any(len(by_dir[d]) for d in group):
                live.append(fp)
            else:
                dead_fps.append(fp)
        for fp in dead_fps:
            del self._live_by_fp[fp]
        return live
