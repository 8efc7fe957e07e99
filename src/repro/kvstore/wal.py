"""Write-ahead log (§4.4.2).

Each metadata server persists every accepted operation to a WAL before
modifying in-DRAM structures; after a crash the server replays unapplied
records to rebuild its key-value store and change-logs.  The paper also
marks change-log records as *applied* once an aggregation has persisted
them on the directory-owner's side, so replay can skip them.

The log itself is in-memory state standing in for a durable device: a
simulated crash wipes the store's memtable but never the WAL.  Appends
sit on the hot path of every simulated operation, so records are stored
as parallel arrays (kind, payload) with the LSN implicit in the position
— an append is two list appends, no record-object allocation.

Applied means released: marking a record applied drops its payload, so a
record replay will skip costs two list slots, not the objects it once
named, and host memory follows the unapplied tail rather than the number
of operations (DESIGN.md §11).  A ``None`` payload *is* the applied mark,
which is why :meth:`WriteAheadLog.append` refuses one.  :class:`WalRecord`
views are materialised lazily, only by :meth:`WriteAheadLog.replay` (the
rare crash-recovery path).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, NamedTuple

__all__ = ["WalRecord", "WriteAheadLog"]


class WalRecord(NamedTuple):
    """One unapplied durable log record, as seen by replay.

    ``kind`` is a free-form tag ("put", "delete", "txn", "changelog", ...);
    ``payload`` is whatever the writer needs to redo the operation.
    """

    lsn: int
    kind: str
    payload: Any


class WriteAheadLog:
    """An append-only durable log with applied-marking and checkpointing."""

    def __init__(self) -> None:
        # Parallel arrays; index i holds LSN _base_lsn + i.  A payload of
        # None marks an applied record.
        self._kinds: List[str] = []
        self._payloads: List[Any] = []
        self._base_lsn = 0
        self.appends = 0

    def append(self, kind: str, payload: Any) -> int:
        """Durably append a record; returns its LSN."""
        if payload is None:
            raise ValueError("a WAL payload cannot be None: None marks an applied record")
        kinds = self._kinds
        lsn = self._base_lsn + len(kinds)
        kinds.append(kind)
        self._payloads.append(payload)
        self.appends += 1
        return lsn

    def append_many(self, kind: str, payloads: Iterable[Any]) -> List[int]:
        """Durably append one record per payload in one bookkeeping step.

        Equivalent to ``[self.append(kind, p) for p in payloads]`` — each
        payload keeps its own record (and LSN) so replay and applied-marking
        stay per-record — but the arrays grow by whole-batch extends.
        Returns the LSNs in payload order.
        """
        payloads = list(payloads)
        if None in payloads:
            raise ValueError("a WAL payload cannot be None: None marks an applied record")
        n = len(payloads)
        base = self._base_lsn + len(self._kinds)
        self._kinds.extend([kind] * n)
        self._payloads.extend(payloads)
        self.appends += n
        return list(range(base, base + n))

    def mark_applied(self, lsn: int) -> None:
        """Mark a record as applied (skipped during replay) and release
        its payload."""
        if not self.mark_applied_if_present(lsn):
            raise KeyError(f"WAL record {lsn} not found")

    def mark_applied_if_present(self, lsn: int) -> bool:
        """Tolerant variant: records already truncated by a checkpoint are
        gone, which is fine — the checkpoint covers them."""
        idx = lsn - self._base_lsn
        if 0 <= idx < len(self._payloads):
            self._payloads[idx] = None
            return True
        return False

    def mark_applied_many(self, lsns: Iterable[int]) -> int:
        """Mark a batch of records applied; returns how many were found.

        Tolerant like :meth:`mark_applied_if_present`: LSNs already dropped
        by a checkpoint are silently skipped (the checkpoint covers them).
        The base offset is computed once for the whole batch instead of per
        LSN.
        """
        payloads = self._payloads
        base = self._base_lsn
        n = len(payloads)
        marked = 0
        for lsn in lsns:
            idx = lsn - base
            if 0 <= idx < n:
                payloads[idx] = None
                marked += 1
        return marked

    def replay(self) -> Iterator[WalRecord]:
        """Iterate unapplied records in LSN order (crash recovery).

        Yields freshly materialised :class:`WalRecord` views."""
        base = self._base_lsn
        kinds = self._kinds
        for idx, payload in enumerate(self._payloads):
            if payload is not None:
                yield WalRecord(base + idx, kinds[idx], payload)

    def checkpoint(self) -> int:
        """Drop the contiguous applied prefix; returns #dropped.

        Only the prefix can be dropped: a later applied record keeps its
        slot so the LSN arithmetic of the records before it still holds.
        """
        payloads = self._payloads
        dropped = 0
        n = len(payloads)
        while dropped < n and payloads[dropped] is None:
            dropped += 1
        if dropped:
            del self._kinds[:dropped]
            del payloads[:dropped]
            self._base_lsn += dropped
        return dropped

    def __len__(self) -> int:
        return len(self._kinds)
