"""Server-side invalidation lists (§3.2, §4.2.3).

Clients resolve paths from their local metadata cache, so a concurrently
removed ancestor directory could let a stale client operate under a dead
path.  Every server keeps an *invalidation list* of recently removed
directory ids; the server-side validation check of each operation rejects
requests whose resolved ancestor ids intersect the list, forcing the
client to invalidate its cache and re-resolve.

During ``rmdir`` the owner multicasts the directory's id to all servers,
which insert it into their local lists *before* shipping their change-log
entries back (Figure 5, steps 4-6) — guaranteeing no later operation
sneaks into the dying directory.

After a server failure the list is recovered by cloning a peer's (§4.4.2).
"""

from __future__ import annotations

from typing import Iterable, Set

__all__ = ["InvalidationList"]


class InvalidationList:
    """A set of invalidated (removed) directory ids."""

    def __init__(self):
        self._ids: Set[int] = set()

    def insert(self, dir_id: int) -> None:
        self._ids.add(dir_id)

    def discard(self, dir_id: int) -> None:
        """Revert an invalidation (rmdir found the directory non-empty)."""
        self._ids.discard(dir_id)

    def validate(self, ancestor_ids: Iterable[int]) -> bool:
        """True when *no* ancestor has been invalidated."""
        for dir_id in ancestor_ids:
            if dir_id in self._ids:
                return False
        return True

    def snapshot(self) -> Set[int]:
        """A copy for cloning to a recovering server (§4.4.2)."""
        return set(self._ids)

    def restore(self, ids: Set[int]) -> None:
        self._ids = set(ids)
