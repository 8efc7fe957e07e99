"""Epoch-versioned cluster membership and shard routing.

Static routing (``fp % num_servers`` frozen inside :class:`FSConfig`)
cannot express servers joining or leaving mid-run.  This module replaces
it with a first-class membership layer:

* the shard space is fixed for the lifetime of a run —
  ``num_shards = num_servers * SHARDS_PER_SERVER`` at bootstrap — and
  every fingerprint group / file hashes to a shard, never directly to a
  server;
* a :class:`MembershipView` is an immutable snapshot (epoch number,
  server tuple, shard → owner-address table).  All routing questions are
  answered against a view, so a client or server holding a stale view
  gets *consistently* stale answers until it refreshes;
* :class:`Membership` holds the current view and advances the epoch on
  scale-up / scale-down; :func:`plan_scale_up` / :func:`plan_scale_down`
  compute minimal-movement shard reassignments.

At epoch 0 the bootstrap table assigns shard ``s`` to server
``s % num_servers``, which makes ``table[fp % num_shards]`` coincide with
the historical ``fp % num_servers`` routing — the refactor is
bit-identical for static clusters (the pinned fig-11 test certifies it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from .config import FSConfig
from .schema import file_shard_of, fingerprint_of, new_dir_id, root_inode

__all__ = [
    "Placement",
    "MembershipView",
    "Membership",
    "bootstrap_view",
    "plan_scale_up",
    "plan_scale_down",
]


class Placement(Protocol):
    """Which server holds this name: the one routing question (§6.1).

    Answered by a :class:`MembershipView` and by the baselines'
    partitions; asked by the one client, the one ``bootstrap``, the
    rename transaction and a server working out where a parent
    directory lives.
    """

    epoch: int
    rename_coordinator: str

    def file_owner(self, pid: int, name: str, dir_path: str) -> str: ...

    def dir_owner(self, pid: int, name: str, path: str) -> str: ...

    def root_owner(self) -> str: ...

    def dir_id(self, pid: int, name: str, nonce: int) -> int: ...


class MembershipView:
    """An immutable epoch-stamped routing snapshot.

    Holders never see the table mutate underneath them: migrations build
    a *new* view and bump the epoch, so comparing epochs is enough to
    detect staleness (the ``WrongEpoch`` redirect protocol).
    """

    __slots__ = ("epoch", "servers", "shard_table", "num_shards", "_others")

    def __init__(self, epoch: int, servers: Sequence[str], shard_table: Sequence[str]):
        self.epoch = epoch
        self.servers: Tuple[str, ...] = tuple(servers)
        self.shard_table: Tuple[str, ...] = tuple(shard_table)
        self.num_shards = len(self.shard_table)
        if not self.servers:
            raise ValueError("membership view needs at least one server")
        if self.num_shards < 1:
            raise ValueError("membership view needs at least one shard")
        strays = set(self.shard_table) - set(self.servers)
        if strays:
            raise ValueError(f"shard table references non-members: {sorted(strays)}")
        # Per-view multicast-target cache: computed once per (view, addr),
        # so no call rebuilds the list and invalidation is automatic (a new
        # epoch is a new view).
        self._others: Dict[str, Tuple[str, ...]] = {}

    # -- routing ------------------------------------------------------------
    def dir_owner_by_fp(self, fingerprint: int) -> str:
        """Owner server address for a directory fingerprint group."""
        return self.shard_table[fingerprint % self.num_shards]

    # Placement: a view hashes names and never looks at the path.
    def dir_owner(self, pid: int, name: str, path: Optional[str] = None) -> str:
        return self.shard_table[fingerprint_of(pid, name) % self.num_shards]

    def file_owner(self, pid: int, name: str, dir_path: Optional[str] = None) -> str:
        """Owner server address for file ``name`` under directory *pid*."""
        return self.shard_table[file_shard_of(pid, name, self.num_shards)]

    def root_owner(self) -> str:
        return self.dir_owner_by_fp(root_inode().fingerprint)

    def dir_id(self, pid: int, name: str, nonce: int) -> int:
        """A fresh id per mkdir: *nonce* tells a re-created name apart."""
        return new_dir_id(pid, name, nonce)

    def others(self, addr: str) -> Tuple[str, ...]:
        """All member addresses except *addr* (multicast targets).

        Precomputed once per view — callers on hot multicast paths hit a
        dict probe instead of rebuilding a list per call.
        """
        cached = self._others.get(addr)
        if cached is None:
            cached = self._others[addr] = tuple(a for a in self.servers if a != addr)
        return cached

    @property
    def rename_coordinator(self) -> str:
        """The rename coordinator: the first *live* member, not a fixed
        index — when server 0 leaves, coordination hands off to the next
        member in the view."""
        return self.servers[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MembershipView(epoch={self.epoch}, servers={len(self.servers)}, "
            f"shards={self.num_shards})"
        )


def bootstrap_view(config: FSConfig) -> MembershipView:
    """The epoch-0 view for a freshly configured cluster.

    Shard ``s`` maps to server ``s % num_servers``; because
    ``num_shards`` is a multiple of ``num_servers``,
    ``table[x % num_shards] == server_addr(x % num_servers)`` for every
    ``x`` — identical routing to the pre-membership code.
    """
    num_shards = config.num_shards
    table = tuple(
        config.server_addr(s % config.num_servers) for s in range(num_shards)
    )
    return MembershipView(0, tuple(config.server_addrs), table)


class Membership:
    """The mutable holder of the cluster's current view.

    The cluster driver advances it during migration.  Everyone else
    should grab ``current`` and route against that snapshot.
    """

    def __init__(self, view: MembershipView):
        self._view = view

    @property
    def current(self) -> MembershipView:
        return self._view

    def advance(
        self,
        servers: Optional[Sequence[str]] = None,
        shard_table: Optional[Sequence[str]] = None,
    ) -> MembershipView:
        """Install a new view at epoch+1."""
        old = self._view
        view = MembershipView(
            old.epoch + 1,
            old.servers if servers is None else servers,
            old.shard_table if shard_table is None else shard_table,
        )
        self._view = view
        return view


def _load(view_servers: Sequence[str], table: Sequence[str]) -> Dict[str, List[int]]:
    owned: Dict[str, List[int]] = {a: [] for a in view_servers}
    for shard, owner in enumerate(table):
        owned[owner].append(shard)
    return owned


def plan_scale_up(view: MembershipView, new_addr: str) -> Tuple[Tuple[str, ...], Tuple[str, ...], List[int]]:
    """Plan a join: steal shards from the most-loaded members.

    Returns ``(servers, shard_table, moved_shards)`` for the post-join
    view.  The new member receives ``num_shards // (n+1)`` shards —
    movement is proportional to 1/(n+1) of the keyspace, not a full
    reshuffle.  Deterministic: ties break on view server order.
    """
    if new_addr in view.servers:
        raise ValueError(f"{new_addr!r} is already a member")
    servers = view.servers + (new_addr,)
    table = list(view.shard_table)
    owned = _load(view.servers, table)
    quota = view.num_shards // len(servers)
    moved: List[int] = []
    for _ in range(quota):
        donor = max(view.servers, key=lambda a: len(owned[a]))
        if not owned[donor]:
            break
        shard = owned[donor].pop(0)
        table[shard] = new_addr
        moved.append(shard)
    return servers, tuple(table), moved


def plan_scale_down(view: MembershipView, addr: str) -> Tuple[Tuple[str, ...], Tuple[str, ...], List[int]]:
    """Plan a leave: spread the departing member's shards over survivors.

    Each departing shard goes to the currently least-loaded survivor.
    Returns ``(servers, shard_table, moved_shards)``.
    """
    if addr not in view.servers:
        raise ValueError(f"{addr!r} is not a member")
    if len(view.servers) == 1:
        raise ValueError("cannot remove the last member")
    servers = tuple(a for a in view.servers if a != addr)
    table = list(view.shard_table)
    owned = _load(view.servers, table)
    moved = list(owned[addr])
    for shard in moved:
        target = min(servers, key=lambda a: len(owned[a]))
        table[shard] = target
        owned[target].append(shard)
    return servers, tuple(table), moved
