"""Local transactions over one KV store.

The paper uses RocksDB local transactions to atomically update a
directory inode's metadata (timestamps, size) while the entry list is
updated outside the transaction (§4.3 — safe because directory reads are
blocked during aggregation).  These transactions are single-store and
non-interactive: ops are staged, then committed in one atomic step with a
single WAL record.

A transaction is its staged map: each key's last write, :data:`DELETED`
for a delete, which is the state the ordered op list leaves.  It is
write-only: a caller reads the store before it stages.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple, TYPE_CHECKING

from ..errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kv import KVStore

__all__ = ["DELETED", "Transaction"]

#: The staged value, and the logged value, of a delete.
DELETED = object()


class Transaction:
    """A staged batch of ops committed atomically."""

    def __init__(self, store: "KVStore"):
        self._store = store
        self._staged: Dict[Tuple[Any, ...], Any] = {}
        self._done = False

    def _check_open(self) -> None:
        if self._done:
            raise TransactionError("transaction already committed")

    def put(self, key: Tuple[Any, ...], value: Any) -> None:
        self._check_open()
        self._staged[key] = value

    def delete(self, key: Tuple[Any, ...]) -> None:
        self._check_open()
        self._staged[key] = DELETED

    def commit(self) -> None:
        """Apply every key's last write atomically (single WAL record)."""
        self._check_open()
        self._done = True
        if self._staged:
            self._store.commit_ops(self._staged)
