"""The SwitchFS metadata server (§4), as a layered package.

Each server owns a per-file-hashed partition of inodes, a local
change-log table for delayed remote-directory updates, an invalidation
list, a WAL, and a pool of CPU cores.  The op workflows follow §4.2:

* **Double-inode ops** (``create``, ``delete``, ``mkdir``, ``rmdir``)
  execute entirely on the server owning the *target* object.  The parent
  directory's update is appended to a local change-log and the response
  leaves with an ``INSERT`` stale-set header; the switch marks the parent
  *scattered* and multicasts the response to the client (completion) and
  back to this server (unlock).  On stale-set overflow the switch
  redirects the response to the parent's owner, which applies the update
  synchronously (fallback) before completing the operation.

* **Directory reads** (``statdir``, ``readdir``) arrive with a ``QUERY``
  header whose RET bit the switch filled in.  A scattered directory
  triggers a **metadata aggregation**: block reads on the fingerprint
  group, pull change-logs from all servers, apply them (recast: one inode
  transaction + parallel entry ops), multicast an acknowledgment carrying
  a ``REMOVE`` header, unblock.

* **Rename** moves the inode in a synchronous distributed transaction
  (global-key-order locking, deadlock-free); the parent entry fix-ups
  take the deferred change-log path for file renames, while directory
  renames serialise through the centralised coordinator and aggregate
  the affected fingerprint groups first (see :mod:`repro.core.rename`).

Feature flags (``config.async_updates`` / ``config.recast``) switch the
server into the ablation modes of §6.5.1, and ``config.stale_backend``
swaps the in-network stale set for a stale-set *server* (§6.5.2).  With
``async_updates=False`` and a baseline's placement, the same server is
every baseline DFS of §6.1 (:mod:`repro.baselines`).

The implementation is layered — each layer is one module:

========================  =============================================
:mod:`.runtime`           CPU / lock / RPC / recovery-gate substrate
                          (:class:`ServerRuntime`)
:mod:`.ops`               double-inode update workflows (§4.2) and
                          the synchronous parent update
:mod:`.reads`             directory / single-inode read workflows
:mod:`.aggregation`       pull/apply/ack + proactive policy (§4.2.2/§4.3)
:mod:`.changelog_engine`  change-log push, recast, idle sweep, flush
:mod:`.renamepart`        rename 2PC participant (§4.2)
:mod:`.recovery`          crash / checkpoint / WAL recovery (§4.4)
:mod:`.migration`         live shard migration (elastic scale-out/in)
========================  =============================================

:class:`MetadataServer` composes them; the public API is unchanged from
the former single-module implementation.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ...net.topology import Network
from ...sim import Event, RWLock, Simulator
from ..changelog import ChangeLogTable
from ..config import FSConfig
from ..invalidation import InvalidationList
from ..membership import Membership, MembershipView
from ..staleset_backend import ServerBackendClient
from .aggregation import AggregationProtocol
from .changelog_engine import ChangeLogEngine
from .migration import ShardMigration
from .ops import ServerOps
from .reads import ReadOps
from .recovery import CrashRecovery
from .renamepart import RenameParticipant
from .runtime import ServerRuntime

__all__ = ["MetadataServer", "ServerRuntime"]


def _routed_here(*_key) -> None:
    """The owner check of a placement that never moves."""


def _lock_state(lock: RWLock) -> str:
    held = "w" if lock.write_locked else f"r x{lock.readers}" if lock.readers else "nobody"
    return f"held by {held}, {lock.waiting} waiting"


class MetadataServer(  # reprolint: allow[RL006] one instance per server, built at boot
    ServerOps,
    ReadOps,
    AggregationProtocol,
    ChangeLogEngine,
    RenameParticipant,
    CrashRecovery,
    ShardMigration,
    ServerRuntime,
):
    """One SwitchFS metadata server — or, over a baseline's placement, one
    baseline metadata server."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        addr: str,
        config: FSConfig,
        membership: Membership,
    ):
        ServerRuntime.__init__(self, sim, net, addr, config)
        self.membership = membership
        self.changelogs = ChangeLogTable()
        self.inval = InvalidationList()

        self._changelog_locks: Dict[int, RWLock] = {}
        self._group_blocks: Dict[int, Event] = {}
        self._pending_unlocks: Dict[int, Dict[str, Any]] = {}
        # Watchdog scanners (ops._arm_unlock_watchdog / aggregation
        # ._arm_pull_watchdog): at most one timer per server in flight.
        self._wd_armed = False
        self._pull_wd: Dict[int, Any] = {}
        self._pull_wd_armed = False
        self._dir_nonce = 0
        self._remove_seq = 0
        self._grace_pending: Dict[int, bool] = {}
        # The group change-log write lock held between an agg_pull and its
        # ack (§4.2.2 step 9a), by fp; a second pull queues on the lock.
        self._pull_locks: Dict[int, RWLock] = {}
        self._last_push_at: Dict[int, float] = {}
        # fp -> count of pushes drained from the local table but not yet
        # landed at (or restored from) their destination; consulted by the
        # migration driver before clearing stale-set bits.
        self._push_inflight: Dict[int, int] = {}

        self.ss = (
            ServerBackendClient(self.node, config)
            if config.stale_backend == "server"
            else None
        )

        self.register_handlers(
            {
                "create": self._handle_create,
                "delete": self._handle_delete,
                "mkdir": self._handle_mkdir,
                "rmdir": self._handle_rmdir,
                "stat": self._handle_stat,
                "open": self._handle_open,
                "close": self._handle_close,
                "statdir": self._handle_statdir,
                "readdir": self._handle_readdir,
                "lookup_dir": self._handle_lookup_dir,
                "agg_pull": self._handle_agg_pull,
                "agg_ack": self._handle_agg_ack,
                "changelog_push": self._handle_changelog_push,
                "invalidate_and_pull": self._handle_invalidate_and_pull,
                "uninvalidate": self._handle_uninvalidate,
                "unlock_fallback": self._handle_unlock_fallback,
                "parent_prepare": self._handle_parent_prepare,
                "parent_commit": self._handle_parent_commit,
                "aggregate_now": self._handle_aggregate_now,
                "rename": self._handle_rename,
                "read_inode": self._handle_read_inode,
                "read_inode_scan": self._handle_read_inode_scan,
                "rename_lock": self._handle_rename_lock,
                "mark_entry": self._handle_mark_entry,
                "rename_commit": self._handle_rename_commit,
                "rename_abort": self._handle_rename_abort,
                "clone_invalidation": self._handle_clone_invalidation,
                "flush_apply": self._handle_flush_apply,
                "get_membership": self._handle_get_membership,
                "migrate_install": self._handle_migrate_install,
            }
        )
        self.node.tap = self._tap
        if not isinstance(membership.current, MembershipView):
            # A baseline's partition has no epochs: whatever reaches this
            # server was routed here by the placement it would be checked
            # against.
            self._check_owner_file = self._check_owner_dir = _routed_here
        if config.proactive_enabled and config.async_updates:
            sim.spawn(self._idle_push_sweeper(), name=f"sweeper-{addr}")

    def unsettled(self) -> List[str]:
        """What this server still holds or owes, one line per item; empty
        when it is quiescent.  ``SwitchFSCluster.settle`` raises on any.

        Lock tables drop a lock once it is idle, so any entry left in one
        is a lock still held or waited on."""
        out = []
        for table, locks in (
            ("_inode_locks", self._inode_locks),
            ("_changelog_locks", self._changelog_locks),
            ("_pull_locks", self._pull_locks),
        ):
            out.extend(f"{self.addr} {table}[{key!r}]: {_lock_state(lock)}"
                       for key, lock in locks.items())
        for txn_id, locks in self._rename_locks.items():
            out.extend(f"{self.addr} _rename_locks[{txn_id!r}]: {lock.name} {_lock_state(lock)}"
                       for lock in locks)
        for table, items in (
            ("_group_blocks", self._group_blocks),
            ("_pending_unlocks", self._pending_unlocks),
            ("_push_inflight", self._push_inflight),
        ):
            out.extend(f"{self.addr} {table}[{key!r}]" for key in items)
        # Without proactive pushes an entry is parked until a read pulls it.
        pending = self.config.proactive_enabled and self.pending_changelog_entries()
        if pending:
            out.append(f"{self.addr} changelogs: {pending} pending entries")
        return out

    def install_root(self) -> None:
        """Install the root inode if this server owns it."""
        if self.membership.current.root_owner() == self.addr:
            self.install_root_inode()
