"""The layer every metadata server — SwitchFS *and* baselines — runs on.

The paper's fair-comparison methodology ("IndexFS, CFS-KV and AsyncFS
have the same storage and networking framework", §6.1) is realised here:
:class:`ServerRuntime` is the substrate a metadata server needs —

* bulk handler registration on its :class:`~repro.net.RpcNode` endpoint,
* service-time accounting on its pool of CPU cores,
* the inode lock table,
* the one application of an entry to a directory under its inode lock,
* the recovery gate that blocks operations while a server rebuilds
  state after a crash (§4.4.2),

and :class:`~repro.core.server.MetadataServer` builds SwitchFS and every
baseline on it, so systems differ only in their *metadata scheme* and
placement, never in the substrate.  Throughput/latency differences
between systems therefore come from the protocols, not from divergent
engineering — exactly the property the evaluation relies on.

Every substrate primitive doubles as an instrumentation hook: CPU
charges record ``queue``/``cpu`` time, lock acquisitions record ``lock``
wait, nested RPCs record ``net`` wait — accumulated per server in
:class:`~repro.sim.PhaseStats` (``self.phases``) so latency breakdowns
read measured data.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ...sim import Event, Hold, RWLock, SimulationError
from ..changelog import ChangeLogEntry
from ...errors import EWRONGEPOCH, FSError
from ..schema import dir_meta_key, root_inode

__all__ = ["ServerRuntime"]


class ServerRuntime:
    """Mixin: CPU / lock / RPC / recovery-gate substrate shared by every
    server.  It declares no state: :class:`~repro.core.server.MetadataServer`
    builds what survives a crash, and its ``_lose_dram`` what does not."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    def register_handlers(self, handlers: Dict[str, Callable]) -> None:
        """Install RPC handlers in bulk (method name -> generator handler)."""
        for method, handler in handlers.items():
            self.node.register(method, handler)

    def _call(
        self,
        dst: str,
        method: str,
        args: Any,
        max_attempts: Optional[int] = None,
    ) -> Generator:
        """Nested RPC with the perf model's timeout/retry policy.

        Returns the response *value* and records the call's wall time as
        ``net`` phase wait.
        """
        t0 = self.sim.now
        try:
            value, _ = yield from self.node.call(
                dst, method, args,
                timeout_us=self.perf.rpc_timeout_us,
                max_attempts=max_attempts if max_attempts is not None
                else self.perf.rpc_max_attempts,
            )
            return value
        finally:
            self.phases.net += self.sim.now - t0

    def _multicast(self, dsts: List[str], method: str, args: Any) -> Generator:
        """Multicast RPC to *dsts*; returns values in order (``net`` phase).

        Scatter-gather underneath (one completion event, shared retransmit
        timer) rather than one call process per destination.
        """
        t0 = self.sim.now
        try:
            results = yield from self.node.multicast_call(
                dsts, method, args,
                timeout_us=self.perf.rpc_timeout_us,
                max_attempts=self.perf.rpc_max_attempts,
            )
            return results
        finally:
            self.phases.net += self.sim.now - t0

    # ------------------------------------------------------------------
    # service-time accounting
    # ------------------------------------------------------------------
    def charge_cpu(self, us: float) -> Event:
        """Charge *us* microseconds of CPU on one of this server's cores.

        Returns the hold event to yield.  Time spent waiting for a free
        core is recorded as ``queue``, the core-hold time as ``cpu``.
        """
        return Hold(self.cores, us * self._stack_mult, self.phases)

    _cpu = charge_cpu  # the server mixins' internal spelling

    def charge_cpu_all(self, n: int, us: float) -> Event:
        """*n* pieces of work of *us* each behind one event, spread over
        at most one hold per core (:meth:`Resource.hold_all`)."""
        return self.cores.hold_all(n, us * self._stack_mult, self.phases)

    # ------------------------------------------------------------------
    # locks (DESIGN §9: a table holds one only while held or waited on)
    # ------------------------------------------------------------------
    def _inode_lock(self, key: Tuple) -> RWLock:
        lock = self._inode_locks.get(key)
        if lock is None:
            lock = self._inode_locks[key] = RWLock(
                self.sim, name="inode", scope=self.addr, key=key, table=self._inode_locks
            )
        return lock

    def rename_serializer(self) -> RWLock:
        """The coordinator's global rename serialisation lock (lazy).

        Directory renames must be globally serialised to keep orphan-loop
        prevention sound (§4.3); the rename coordinator takes this lock in
        write mode around each directory-rename transaction.
        """
        if self._rename_serial is None:
            self._rename_serial = RWLock(self.sim, name=f"rename-serial:{self.addr}")
        return self._rename_serial

    def _acquire(self, lock: RWLock, mode: str) -> Generator:
        """Acquire *lock* (``"r"``/``"w"``) and return it, recording
        ``lock`` wait time.  It is granted or queued before the first
        yield, so ``_acquire(self._inode_lock(key), "w")`` is one step."""
        if lock.table is None or lock.table.get(lock.key) is not lock:
            # Fetched ahead of a yield, forgotten since: excludes nobody.
            raise SimulationError(f"{lock.name} acquired after its table forgot it")
        wait = lock.acquire_write() if mode == "w" else lock.acquire_read()
        if wait is not None:
            t0 = self.sim.now
            yield wait
            self.phases.lock += self.sim.now - t0
        return lock

    def _release(self, lock: RWLock, mode: str) -> None:
        """Give *lock* back; its table forgets it once idle (a lock from
        before a crash is no longer its entry, and is only released)."""
        idle = lock.release_write() if mode == "w" else lock.release_read()
        table = lock.table
        if idle and table is not None and table.get(lock.key) is lock:
            del table[lock.key]

    def _release_locks(self, locks: List[Tuple[RWLock, str]]) -> None:
        for lock, mode in locks:
            self._release(lock, mode)

    # ------------------------------------------------------------------
    # recovery gate (§4.4.2: operations block while a server recovers)
    # ------------------------------------------------------------------
    def _wait_recovered(self) -> Generator:
        if self._recovered_ev is not None:
            yield self._recovered_ev

    def begin_recovery(self) -> None:
        """Block new operations until :meth:`end_recovery`."""
        if self._recovered_ev is None:
            self._recovered_ev = self.sim.event()

    def end_recovery(self) -> None:
        if self._recovered_ev is not None:
            self._recovered_ev.succeed()
            self._recovered_ev = None

    # ------------------------------------------------------------------
    # epoch-aware routing checks (membership refactor)
    # ------------------------------------------------------------------
    def _mutator_begin(self) -> None:
        self._inflight_mutators += 1

    def _mutator_end(self) -> None:
        self._inflight_mutators -= 1

    def _check_owner_file(self, pid: int, name: str) -> None:
        """Reject a file op routed here with a stale membership view."""
        owner = self.membership.current.file_owner(pid, name)
        if owner != self.addr:
            raise FSError(EWRONGEPOCH, f"file {pid}/{name} owned by {owner}")

    def _check_owner_dir(self, fingerprint: int) -> None:
        """Reject a directory op routed here with a stale membership view."""
        owner = self.membership.current.dir_owner_by_fp(fingerprint)
        if owner != self.addr:
            raise FSError(EWRONGEPOCH, f"group {fingerprint:#x} owned by {owner}")

    # ------------------------------------------------------------------
    # the parent-directory update every scheme ends in
    # ------------------------------------------------------------------
    def _apply_entry_with_inode_txn(
        self, dir_id: int, entry: ChangeLogEntry, already_locked: frozenset = frozenset()
    ) -> Generator:
        """One entry applied under the directory-inode write lock; returns
        whether the directory was there to take it.

        This is the contended segment: the lock-hold window is what
        serialises concurrent updates of one directory in synchronous
        systems (Challenge 2).  *already_locked* names inode keys the
        caller holds write locks on (rmdir holds its own target's lock
        while aggregating, so re-acquiring would self-deadlock; a
        ``parent_commit`` holds the one its ``parent_prepare`` took, a
        rename commit the ones its round 1 took).

        A directory removed meanwhile is not an error here: a delayed
        update has nobody left to tell, and a synchronous caller turns
        False into its client's ENOENT.
        """
        key = self._dir_index.get(dir_id)
        if key is None:
            return False
        lock = None
        if key not in already_locked:
            lock = yield from self._acquire(self._inode_lock(key), "w")
        try:
            yield self._cpu(self.perf.dir_inode_update_us + self.perf.dir_entry_put_us)
            inode = self.kv.get_or_none(key)
            if inode is None:
                return False
            delta = self._apply_entries_to_list(dir_id, (entry,))
            self.kv.put(key, inode.touched(entry.timestamp, delta))
            return True
        finally:
            if lock is not None:
                self._release(lock, "w")

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    def index_directory(self, dir_id: int, key: Tuple) -> None:
        """Record *dir_id* -> inode *key* in this server's directory index.

        Public surface for bootstrap/population code; the server's own
        workflows maintain ``_dir_index`` inline as they apply updates.
        """
        self._dir_index[dir_id] = key

    def install_root_inode(self) -> None:
        """Install the root inode (WAL-logged so it survives crash+replay)."""
        root = root_inode()
        self.kv.put(dir_meta_key(root.pid, root.name), root)
        self._dir_index[root.id] = dir_meta_key(root.pid, root.name)
