"""Operation workflows (§4.2): double-inode updates and reads.

* **Double-inode ops** (``create``, ``delete``, ``mkdir``, ``rmdir``)
  execute entirely on the server owning the *target* object.  The parent
  directory's update is appended to a local change-log and the response
  leaves with an ``INSERT`` stale-set header; the switch marks the parent
  *scattered* and multicasts the response to the client (completion) and
  back to this server (unlock).  On stale-set overflow the switch
  redirects the response to the parent's owner, which applies the update
  synchronously (fallback) before completing the operation.

* **The synchronous parent update** (:meth:`ServerOps._update_parent_sync`)
  is the one way a parent directory is updated before a reply: with
  ``async_updates=False`` (Fig 15's Baseline and every baseline DFS) and
  on both overflow fallbacks.  Cross-server it is a prepare / commit
  exchange that holds the parent's inode lock across both phases.

Read workflows live in :mod:`repro.core.server.reads`.

The deferred-unlock machinery (unlock tokens, the raw-packet tap that
observes switch multicast copies, and the overflow fallback) lives at
the bottom: it is the op-side half of the asynchronous-update contract.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, List, Tuple

from ...net import Packet, Reply, RpcRequest, RpcResponse, StaleSetHeader, StaleSetOp, alloc_packet
from ...sim import Event, RWLock
from ..changelog import ChangeLog, ChangeLogEntry, ChangeOp
from ..client import split_path
from ...errors import EEXIST, EINVALIDPATH, ENOENT, ENOTEMPTY, FSError
from ..schema import (
    ROOT_ID,
    DirInode,
    FileInode,
    dir_meta_key,
    file_cache_fingerprint,
    file_meta_key,
    fingerprint_of,
)

__all__ = ["ServerOps"]

_unlock_tokens = itertools.count(1)


class ServerOps:
    """Mixin: op workflows over the :class:`ServerRuntime` substrate."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # double-inode operations: create / delete / mkdir / rmdir
    # ------------------------------------------------------------------
    # Thin wrappers stay plain functions: returning the workflow generator
    # directly (instead of `yield from`-delegating to it) removes one
    # frame from every resume of the op — `_serve` drives whatever
    # generator the handler hands back.
    def _handle_create(self, request: RpcRequest, packet: Packet) -> Generator:
        return self._double_inode_op(request, ChangeOp.CREATE, adds=True, is_dir=False)

    def _handle_delete(self, request: RpcRequest, packet: Packet) -> Generator:
        return self._double_inode_op(request, ChangeOp.DELETE, adds=False, is_dir=False)

    def _handle_mkdir(self, request: RpcRequest, packet: Packet) -> Generator:
        """mkdir executes on the *new directory's* owner server."""
        return self._double_inode_op(request, ChangeOp.MKDIR, adds=True, is_dir=True)

    def _handle_rmdir(self, request: RpcRequest, packet: Packet) -> Generator:
        return self._double_inode_op(request, ChangeOp.RMDIR, adds=False, is_dir=True)

    def _double_inode_op(
        self, request: RpcRequest, op: ChangeOp, adds: bool, is_dir: bool
    ) -> Generator:
        """The double-inode workflow (§4.2.1, Figure 4, green): mutate the
        target inode here, log the parent's update, reply with INSERT.

        The four ops differ in *adds* (put an inode or remove one) and
        *is_dir* (which key, owner check and index upkeep); rmdir also
        proves the directory empty first (:meth:`_rmdir_check_empty`).
        """
        args = request.args
        pid, name = args["pid"], args["name"]
        parent_fp = args["parent_fp"]
        perf = self.perf
        if self._recovered_ev is not None:  # inline _wait_recovered
            yield self._recovered_ev
        yield self._cpu(perf.path_check_us)
        self._check_valid(args)
        if is_dir:
            # rmdir's client resolved the directory and ships its fingerprint.
            fp = fingerprint_of(pid, name) if adds else args["fp"]
            self._check_owner_dir(fp)
            key = dir_meta_key(pid, name)
        else:
            self._check_owner_file(pid, name)
            key = file_meta_key(pid, name)

        # Counted before the lock waits: an op parked on a lock is still
        # an in-flight mutator the migration quiesce must wait out.
        self._mutator_begin()
        # Locks go through _acquire (not inlined): the lock-discipline
        # characterization tests observe acquisition order through it.
        # An rmdir whose directory shares its parent's fingerprint takes
        # the group's change-log lock once, in the write mode its own
        # round needs.
        cl_mode = "w" if is_dir and not adds and fp == parent_fp else "r"
        # rmdir runs a round on its own group (_rmdir_check_empty), and a
        # round already in flight there (a reader's, a colliding rmdir's)
        # will want this inode: wait for its block holding nothing, and
        # step aside again if one set it while the locks were granted.
        frozen_rmdir = is_dir and not adds and self.config.async_updates
        # Custody: whoever holds this list releases what is in it — the
        # unlock token once _finish_async_update emptied it, else `finally`.
        held = []
        try:
            while True:
                if frozen_rmdir:
                    yield from self._wait_group_unblocked(fp)
                cl_lock = yield from self._acquire(self._changelog_lock(parent_fp), cl_mode)
                klock = yield from self._acquire(self._inode_lock(key), "w")
                held[:] = [(klock, "w"), (cl_lock, cl_mode)]
                yield self._cpu(perf.kv_get_us)
                # No yield from here to the round's block in _rmdir_check_empty.
                if not (frozen_rmdir and fp in self._group_blocks):
                    break
                self._release_locks(held)
                held.clear()
            exists = key in self.kv
            if adds and exists:
                raise FSError(EEXIST, f"{pid}/{name}")
            if not adds and not exists:
                raise FSError(ENOENT, f"{pid}/{name}")
            if is_dir and not adds:
                # rmdir freeze (Fig 5 steps 4-7): barrier, invalidation
                # multicast, aggregation and revert all run under the dir
                # locks, and no round on the group is in flight (above).
                # Lock order: the parent's group log and our own inode
                # first, then the group's log, then the group's other
                # inodes (already_locked skips the ones held).
                yield from self._rmdir_check_empty(args, key)

            yield self._cpu(perf.wal_append_us)
            now = self.sim.now
            perm = args.get("perm", 0o755 if is_dir and adds else 0o644)
            inode = None
            if adds and is_dir:
                inode = DirInode(self._new_dir_id(pid, name), pid, name, fp, perm, now, now)
            elif adds:
                inode = FileInode(pid, name, perm, now, now)
            yield self._cpu(perf.kv_put_us)
            if adds:
                self.kv.put(key, inode)
                if is_dir:
                    self._dir_index[inode.id] = key
            else:
                self.kv.delete(key)
                if is_dir:
                    self._dir_index.pop(args["dir_id"], None)
            # Evict before the reply departs: per-fp FIFO then orders any
            # stale in-flight FILL ahead of this EVICT at the switch.
            if self.config.switch_cache:
                self._send_cache_evict(fp if is_dir else file_cache_fingerprint(pid, name))

            entry = ChangeLogEntry(now, op, name, is_dir, perm)
            if self.config.async_updates:
                # The locks are held across the switch round-trip; unlock
                # defers to the INSERT multicast.  Lock order: child before
                # parent; only the ss-backend fallback locks again, the
                # parent's inode.
                reply = yield from self._finish_async_update(
                    request, parent_fp, pid, entry, held
                )
            else:
                # Held across the parent update by design (the measured
                # cost of a synchronous scheme).  Lock order: child before
                # parent; the update locks the parent's inode and nothing
                # else.
                applied = yield from self._update_parent_sync(
                    self._parent_owner(args), pid, entry
                )
                if not applied:
                    # The parent is gone (a client's cache outlived it): the
                    # inode written ahead of the update must not outlive the
                    # ENOENT as an orphan no listing reaches.
                    if adds:
                        self.kv.delete(key)
                        if is_dir:
                            self._dir_index.pop(inode.id, None)
                    raise FSError(ENOENT, f"directory {pid}")
                reply = Reply(value={"status": "ok"})
            if adds and is_dir:  # the client caches what mkdir made
                reply.value["id"] = inode.id
                reply.value["fingerprint"] = inode.fingerprint
            return reply
        finally:
            self._mutator_end()
            self._release_locks(held)

    def _new_dir_id(self, pid: int, name: str) -> int:
        """A fresh id for a directory made here, minted by the placement."""
        self._dir_nonce += 1
        return self.membership.current.dir_id(pid, name, self._dir_nonce)

    def _rmdir_check_empty(self, args: Dict[str, Any], key: Tuple) -> Generator:
        """rmdir only (Figure 5, steps 4-7): freeze the directory on every
        server, gather its group's scattered updates, and fail ENOTEMPTY —
        thawing it again — unless that leaves it empty.  Runs under the
        caller's locks on *key* and, when the directory shares its
        parent's fingerprint, on the group's change-log; the caller saw
        the group unblocked with no yield since."""
        dir_id, fp = args["dir_id"], args["fp"]
        frozen = self.config.async_updates
        if frozen:
            locked = (key, fp) if fp == args["parent_fp"] else (key,)
            yield from self._aggregation_round(
                fp, invalidate=dir_id, already_locked=frozenset(locked)
            )
        inode = self.kv.get(key)  # refreshed by aggregation
        yield self._cpu(self.perf.kv_get_us)
        if inode.entry_count > 0:
            # Not empty: revert the invalidation so the directory stays
            # usable, then fail.  The revert must be as reliable as the
            # invalidation it undoes: a lost fire-and-forget uninvalidate
            # leaves the directory permanently EINVALIDPATH on that peer.
            if frozen:
                self.inval.discard(dir_id)
                yield from self._multicast(  # the acked un-invalidate runs under the caller's dir locks, like the freeze it reverts
                    self.membership.current.others(self.addr), "uninvalidate", {"dir_id": dir_id}
                )
            raise FSError(ENOTEMPTY, f"{args['pid']}/{args['name']}")

    def _finish_async_update(
        self,
        request: RpcRequest,
        parent_fp: int,
        parent_id: int,
        entry: ChangeLogEntry,
        held: List[Tuple[RWLock, str]],
    ) -> Generator:
        """Log the delayed parent update and emit the INSERT response.

        With the switch backend, the locks stay held until the switch's
        multicast copy of the response returns (the unlock notification),
        or until the fallback path reports back: the unlock token takes
        them out of *held*, the caller's custody list.  With the server
        backend the stale-set RPC completes inline and the caller, still
        holding them, releases.
        """
        lsn = self.wal.append("changelog", (parent_id, parent_fp, entry))
        yield self._cpu(self.perf.changelog_append_us)
        log = self.changelogs.append(parent_id, parent_fp, entry, lsn, self.sim.now)
        self.counters.inc("changelog_appends")

        if self.ss is not None:  # stale-set-on-a-server mode (§6.5.2)
            # The extra RTT to the stale-set server sits on the critical
            # path here (Figure 16a).
            ok = yield from self.ss.insert(parent_fp)
            if not ok:
                # Fallback: apply the parent update synchronously.
                self._detach_entry(log, entry, lsn)
                yield from self._update_parent_sync(
                    self.membership.current.dir_owner_by_fp(parent_fp), parent_id, entry
                )
                self.counters.inc("sync_fallbacks")
            else:
                self._maybe_push(log)
            return Reply(value={"status": "ok"})

        token = next(_unlock_tokens)
        self._pending_unlocks[token] = {
            "locks": held[:],
            "log": log,
            "entry": entry,
            "lsn": lsn,
        }
        held.clear()  # custody handed over: release_unlock_token unlocks
        self._arm_unlock_watchdog(token)
        return Reply(
            value={
                "status": "ok",
                "unlock_token": token,
                "origin": self.addr,
                "client": request.src,
                "parent_id": parent_id,
                "parent_fp": parent_fp,
                "entry": entry,
            },
            header=StaleSetHeader(StaleSetOp.INSERT, parent_fp),
        )

    def _detach_entry(self, log: ChangeLog, entry: ChangeLogEntry, lsn: int) -> None:
        """Remove a change-log entry that was applied synchronously."""
        if log.detach(entry, lsn):
            self.wal.mark_applied_if_present(lsn)

    def _arm_unlock_watchdog(self, token: int) -> None:
        """Release a deferred unlock whose switch notification was lost.

        The insert either succeeded (entry stays in the change-log, to be
        aggregated normally) or was redirected to the fallback path whose
        own notification releases the token first — either way holding the
        locks forever would wedge the directory, so time out and release.

        One scanner timer per server, not one timer per token: the
        watchdog window (20 ms) dwarfs the op rate, so per-op timers pile
        up as thousands of dead heap entries that deepen every push/pop
        for the whole run.  The scanner keeps at most one entry in the
        heap and re-arms itself at the earliest outstanding deadline, so
        an expired token is still released at exactly ``now + W`` — the
        same virtual time a dedicated timer would have fired.
        """
        deadline = self.sim.now + self.config.unlock_watchdog_us
        self._pending_unlocks[token]["deadline"] = deadline
        if not self._wd_armed:
            self._wd_armed = True
            self.sim.timeout(
                self.config.unlock_watchdog_us
            ).add_callback(self._unlock_watchdog_scan)

    def _unlock_watchdog_scan(self, ev: Event) -> None:
        now = self.sim.now
        pending = self._pending_unlocks
        expired = [t for t, info in pending.items() if info["deadline"] <= now]
        for token in expired:
            self.counters.inc("unlock_watchdog_fires")
            self.release_unlock_token(token, applied_sync=False)
        if pending:
            nxt = min(info["deadline"] for info in pending.values())
            self.sim.timeout(nxt - now).add_callback(self._unlock_watchdog_scan)
        else:
            self._wd_armed = False

    def release_unlock_token(self, token: int, applied_sync: bool) -> bool:
        """Complete a deferred unlock (switch confirmed insert or fallback).

        Returns False for a duplicate/stale token — the caller's tap then
        lets the packet through (a self-addressed RPC's response and its
        unlock copy are byte-identical, and exactly one must reach the
        dispatcher)."""
        info = self._pending_unlocks.pop(token, None)
        if info is None:
            return False  # duplicate notification
        self._release_locks(info["locks"])
        if applied_sync:
            self._detach_entry(info["log"], info["entry"], info["lsn"])
            self.counters.inc("sync_fallbacks")
        else:
            self._maybe_push(info["log"])
        return True

    # -- the synchronous parent update (sync mode, both fallbacks) ----------
    def _parent_owner(self, args: Dict[str, Any]) -> str:
        """Where the parent of the op's target lives: the target's path and
        its parent's ancestry, which every request carries, name the parent
        to any placement."""
        view = self.membership.current
        parent_path, _ = split_path(args["path"])
        if parent_path == "/":
            return view.root_owner()
        _, parent_name = split_path(parent_path)
        ancestors = args["ancestor_ids"]  # root excluded, the parent last
        grandparent_id = ancestors[-2] if len(ancestors) > 1 else ROOT_ID
        return view.dir_owner(grandparent_id, parent_name, parent_path)

    def _update_parent_sync(self, owner: str, parent_id: int, entry: ChangeLogEntry) -> Generator:
        """Apply *entry* to directory *parent_id* on *owner* before the
        caller replies; returns whether the directory was there to take it.

        Cross-server this is the distributed transaction of Table 2: a
        prepare that takes the parent's inode lock and a commit that
        applies the entry and lets it go.  Only the local arm counts as
        a mutator here: counting across the prepare could wedge a
        migration quiesce behind the owner's recovery gate.
        """
        if owner == self.addr:
            self._mutator_begin()
            try:
                return (yield from self._apply_entry_with_inode_txn(parent_id, entry))
            finally:
                self._mutator_end()
        self.counters.inc("cross_server_updates")
        update = {"parent_id": parent_id, "entry": entry}
        value = yield from self._call(owner, "parent_prepare", update)
        if not value["prepared"]:
            return False
        yield from self._call(owner, "parent_commit", update)
        return True

    def _handle_parent_prepare(self, request: RpcRequest, packet: Packet) -> Generator:
        parent_id = request.args["parent_id"]
        yield from self._wait_recovered()
        yield self._cpu(self.perf.txn_phase_us)
        key = self._dir_index.get(parent_id)
        if key is None:
            return {"prepared": False}
        self._mutator_begin()  # until parent_commit, like the lock
        lock = yield from self._acquire(self._inode_lock(key), "w")
        # An rmdir may have held the lock this waited for: only a directory
        # still there once the lock is granted is prepared.
        if self._dir_index.get(parent_id) != key:
            self._mutator_end()
            self._release(lock, "w")
            return {"prepared": False}
        return {"prepared": True}

    def _handle_parent_commit(self, request: RpcRequest, packet: Packet) -> Generator:
        args = request.args
        yield self._cpu(self.perf.txn_phase_us)
        # parent_prepare saw the directory with its lock held, and an rmdir
        # needs that lock: the directory is still there.
        key = self._dir_index[args["parent_id"]]
        try:
            yield from self._apply_entry_with_inode_txn(
                args["parent_id"], args["entry"], frozenset([key])
            )
        finally:
            self._mutator_end()
            self._release(self._inode_lock(key), "w")  # held since parent_prepare
        return {"status": "ok"}

    # ------------------------------------------------------------------
    # raw-packet tap: unlock notifications and sync fallback (§4.2.1)
    # ------------------------------------------------------------------
    def _tap(self, packet: Packet) -> bool:
        if packet.header is None or packet.header.op != StaleSetOp.INSERT:
            return False
        payload = packet.payload
        if not isinstance(payload, RpcResponse) or not isinstance(payload.value, dict):
            return False
        value = payload.value
        if "unlock_token" not in value:
            return False
        if packet.header.ret == 1:
            # The switch's multicast copy back to us: insert confirmed.
            # Consume exactly one copy per token — for self-addressed RPCs
            # (mark_entry) the other, identical copy must reach the
            # dispatcher to complete the call.
            if value.get("origin") == self.addr:
                return self.release_unlock_token(value["unlock_token"], applied_sync=False)
            return False
        # RET == 0: overflow redirect — we are the parent's owner and must
        # apply the update synchronously, then complete the operation.
        self.sim.spawn(self._sync_fallback(payload, packet), name=f"fallback-{self.addr}")
        return True

    def _sync_fallback(self, response: RpcResponse, packet: Packet) -> Generator:
        value = response.value
        yield from self._wait_recovered()
        # Normally this server owns the parent; if the switch redirected
        # with routes from a previous epoch, the live owner takes it.  The
        # child is already written at its own server, so a parent removed
        # meanwhile goes unreported, as it would for a delayed update.
        owner = self.membership.current.dir_owner_by_fp(value["parent_fp"])
        yield from self._update_parent_sync(owner, value["parent_id"], value["entry"])
        # Forward the (now fulfilled) response to the client.
        self.node.net.send(
            alloc_packet(
                self.addr,
                value["client"],
                RpcResponse(rpc_id=response.rpc_id, value={"status": "ok"}),
            )
        )
        origin = value["origin"]
        if origin == self.addr:
            self.release_unlock_token(value["unlock_token"], applied_sync=True)
        else:
            self.node.notify(origin, "unlock_fallback", {"token": value["unlock_token"]})
        self.counters.inc("fallback_applied")

    def _handle_unlock_fallback(self, request: RpcRequest, packet: Packet) -> Generator:
        yield self._cpu(self.perf.changelog_append_us)
        self.release_unlock_token(request.args["token"], applied_sync=True)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _send_cache_evict(self, fp: int) -> None:
        """Invalidate the in-switch dentry-cache line for *fp* (DESIGN.md §15).

        Called immediately after the kv mutation, **before** the op's
        reply departs: all stale-set traffic for one fingerprint takes
        the same switch, so any stale in-flight FILL (sent by a read that
        serialized before this mutation) reaches the switch before this
        EVICT does.  The EVICT packet is consumed at the switch — the
        self-address only gives the topology a routable destination.
        """
        self.counters.inc("cache_evicts_sent")
        self.node.notify(
            self.addr,
            "cache_evict",
            None,
            header=StaleSetHeader(op=StaleSetOp.EVICT, fingerprint=fp),
        )

    def _check_valid(self, args: Dict[str, Any]) -> None:
        """Server-side validation check (step 3a)."""
        if not self.inval.validate(args.get("ancestor_ids", ())):
            raise FSError(EINVALIDPATH, args.get("path", "?"))
