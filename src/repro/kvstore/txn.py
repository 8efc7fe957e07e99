"""Local transactions over one KV store.

The paper uses RocksDB local transactions to atomically update a
directory inode's metadata (timestamps, size) while the entry list is
updated outside the transaction (§4.3 — safe because directory reads are
blocked during aggregation).  These transactions are single-store and
non-interactive: ops are staged, then committed in one atomic step with a
single WAL record.

Reads inside a transaction observe its own staged writes
(read-your-writes) layered over the store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import KeyNotFound, TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kv import KVStore

__all__ = ["Transaction"]

_DELETED = object()


class Transaction:
    """A staged batch of ops committed atomically."""

    def __init__(self, store: "KVStore"):
        self._store = store
        self._staged: Dict[Tuple[Any, ...], Any] = {}
        self._order: List[Tuple[str, Tuple[Any, ...], Any]] = []
        self._done = False

    def _check_open(self) -> None:
        if self._done:
            raise TransactionError("transaction already committed or aborted")

    def put(self, key: Tuple[Any, ...], value: Any) -> None:
        self._check_open()
        self._staged[key] = value
        self._order.append(("put", key, value))

    def delete(self, key: Tuple[Any, ...]) -> None:
        self._check_open()
        self._staged[key] = _DELETED
        self._order.append(("delete", key, None))

    def get(self, key: Tuple[Any, ...]) -> Any:
        """Read through staged writes, then the underlying store."""
        self._check_open()
        if key in self._staged:
            value = self._staged[key]
            if value is _DELETED:
                raise KeyNotFound(repr(key))
            return value
        return self._store.get(key)

    def commit(self) -> None:
        """Apply every staged op atomically (single WAL record)."""
        self._check_open()
        self._done = True
        if self._order:
            self._store.commit_ops(self._order)

    def abort(self) -> None:
        self._check_open()
        self._done = True
        self._staged.clear()
        self._order.clear()

    @property
    def op_count(self) -> int:
        return len(self._order)
