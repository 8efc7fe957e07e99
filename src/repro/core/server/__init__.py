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

from typing import Any, Dict, List, Optional, Tuple

from ...kvstore import KVStore
from ...net import RpcNode
from ...net.topology import Network
from ...sim import Counter, Event, PhaseStats, Resource, RWLock, Simulator
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
        # What survives a crash (DESIGN §6); the rest is _lose_dram's.
        self.sim = sim
        self.addr = addr
        self.config = config
        self.perf = config.perf
        # The stack multiplier is constant for the life of the server and
        # sits on the innermost loop (every CPU charge); keep it local.
        self._stack_mult = config.perf.stack_multiplier
        self.node = RpcNode(sim, net, addr)
        self.kv = KVStore()
        self.wal = self.kv.wal  # one shared WAL per server
        self.cores = Resource(sim, config.cores_per_server)
        self.counters = Counter()
        self.phases = PhaseStats()
        self.membership = membership
        self.ss = (
            ServerBackendClient(self.node, config)
            if config.stale_backend == "server"
            else None
        )
        self._recovered_ev: Optional[Event] = None  # set while recovering
        self._rename_serial: Optional[RWLock] = None  # lazy, coordinator only
        # The watchdog scanner's timer sits in the sim heap and outlives a
        # crash: at most one in flight per server (ops._arm_watchdog).
        self._wd_armed = False
        # The switch drops a REMOVE whose SEQ is not above the last one
        # from this address (§4.4.1); a directory id names one mkdir.
        self._remove_seq = 0
        self._dir_nonce = 0
        self._checkpoint_image: Optional[Dict[str, Any]] = None
        self._lose_dram()

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

    def _lose_dram(self) -> None:
        """Assign every piece of DRAM state fresh: at boot and at
        :meth:`crash` (§4.4.2), so a field declared here cannot outlive
        a crash and one missing from here fails at boot."""
        self.changelogs = ChangeLogTable()
        self.inval = InvalidationList()
        self._inode_locks: Dict[Tuple, RWLock] = {}
        # Maps a directory id to its inode key (entry-list application,
        # rename fix-ups, recovery rebuild all resolve through this).
        self._dir_index: Dict[int, Tuple] = {}
        # Double-inode mutators currently past the recovery gate: the
        # migration driver waits for this to reach zero before it freezes
        # a shard snapshot (quiesce), so no KV write straddles the move.
        self._inflight_mutators = 0
        self._rename_locks: Dict[int, List[RWLock]] = {}
        self._changelog_locks: Dict[int, RWLock] = {}
        self._group_blocks: Dict[int, Event] = {}
        self._pending_unlocks: Dict[int, Dict[str, Any]] = {}
        # The group change-log write lock held between an agg_pull and its
        # ack (§4.2.2 step 9a), by fp; a second pull queues on the lock.
        self._pull_locks: Dict[int, RWLock] = {}
        self._pull_wd: Dict[int, Tuple[float, RWLock]] = {}  # fp -> (deadline, lock)
        # fp -> count of pushes drained from the local table but not yet
        # landed at (or restored from) their destination; outstanding()
        # reports them, so settle() waits them out.
        self._push_inflight: Dict[int, int] = {}
        self._grace_pending: Dict[int, bool] = {}
        self._last_push_at: Dict[int, float] = {}

    def unsettled(self) -> List[str]:
        """:meth:`outstanding`, or once nothing is, each directory inode
        here whose ``entry_count`` differs from its listing; empty when
        the server is quiescent and consistent.  ``SwitchFSCluster.settle``
        raises on any line."""
        out = self.outstanding()
        if out:
            return out
        for key in self._dir_index.values():
            inode = self.kv.get_or_none(key)
            if inode is None:
                continue
            listed = sum(1 for _ in self.kv.scan_prefix(("E", inode.id)))
            if inode.entry_count != listed:
                out.append(f"{self.addr} {key!r}: entry_count {inode.entry_count}, "
                           f"{listed} listed")
        return out

    def outstanding(self) -> List[str]:
        """What this server still holds or owes, one line per item.

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
