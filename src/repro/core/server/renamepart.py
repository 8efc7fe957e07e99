"""Rename participant (§4.2): the server side of the distributed
rename transaction.

The coordinator logic lives in :mod:`repro.core.rename`; this mixin is
the participant — lock one key in global order (round 1), apply the
commit's KV ops and deferred parent fix-ups (round 2), or abort.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from ...net import Packet, RpcRequest
from ...sim import AllOf
from ..changelog import ChangeLogEntry, ChangeOp
from ...errors import EWRONGEPOCH, FSError
from ..schema import file_cache_fingerprint, fingerprint_of

__all__ = ["RenameParticipant"]


class RenameParticipant:
    """Mixin: rename coordinator entry point + 2PC participant handlers."""

    __slots__ = ()

    def _handle_rename(self, request: RpcRequest, packet: Packet) -> Generator:
        from ..rename import run_rename  # local import: avoids module cycle

        # Directory renames (the only ones a client sends here) serialise
        # through the one live coordinator; a client whose view predates a
        # coordinator hand-off (server 0 left) is redirected.
        coordinator = self.membership.current.rename_coordinator
        if coordinator != self.addr:
            raise FSError(EWRONGEPOCH, f"rename coordinator is {coordinator}")
        return (yield from run_rename(self, request.args))

    def _handle_rename_lock(self, request: RpcRequest, packet: Packet) -> Generator:
        """Rename round 1: write-lock one key (+ optional check and read).

        The coordinator issues these in a single global key order across
        all participants, so concurrent renames can never deadlock on
        each other.  Folding the existence check (``expect``) and the
        inode read (``want_inode``) into the lock acquisition saves the
        extra round trips a separate prepare/check phase would cost.
        """
        args = request.args
        yield from self._wait_recovered()
        yield self._cpu(self.perf.txn_phase_us)
        key = tuple(args["key"])
        # Ownership check before taking the lock: a coordinator routing
        # with a stale view aborts cleanly (no lock registered here) and
        # the client retries against the new owner after a view refresh.
        if key[0] == "D":
            self._check_owner_dir(fingerprint_of(key[1], key[2]))
        elif key[0] == "F":
            self._check_owner_file(key[1], key[2])
        lock = yield from self._acquire(self._inode_lock(key), "w")
        txn_id = args["txn_id"]
        self._rename_locks.setdefault(txn_id, []).append(lock)
        result: Dict[str, Any] = {"vote": True}
        if "expect" in args:
            exists = key in self.kv
            if exists != args["expect"]:
                result = {"vote": False, "key": list(key), "exists": exists}
        if result["vote"] and args.get("want_inode"):
            result["inode"] = self.kv.get_or_none(key)
        return result

    def _handle_mark_entry(self, request: RpcRequest, packet: Packet) -> Generator:
        """Append a deferred parent-directory update on behalf of a rename.

        A file rename's parent fix-ups take the same asynchronous path as
        create/delete: the committing server appends the entry to its
        local change-log and the response's INSERT header marks the
        parent scattered (with the usual overflow fallback).  Appending on
        the *same server* that holds any pending entry for the same name
        preserves per-name application order.
        """
        args = request.args
        # Same discipline as every other appender (create/delete/mkdir in
        # ops.py): hold the parent's group change-log lock in read mode across
        # the append; drain and aggregation passes write-hold it.  The
        # rename transaction behind this RPC holds only the two *file*
        # inode locks (parents are deliberately unlocked in async mode),
        # and change-log write-holders only ever acquire *directory*
        # inode locks, so this acquisition cannot complete a lock cycle.
        cl_lock = yield from self._acquire(self._changelog_lock(args["parent_fp"]), "r")
        held = [(cl_lock, "r")]
        try:
            return (yield from self._finish_async_update(  # async update holds the changelog lock across the switch round-trip; unlock defers to the INSERT multicast
                request, args["parent_fp"], args["parent_id"], args["entry"], held
            ))
        finally:
            self._release_locks(held)

    def _handle_rename_commit(self, request: RpcRequest, packet: Packet) -> Generator:
        args = request.args
        yield self._cpu(self.perf.txn_phase_us + self.perf.wal_append_us)
        txn = self.kv.transaction()
        for op in args["ops"]:
            kind, key, value = op
            if kind == "put":
                txn.put(tuple(key), value)
            elif kind == "delete":
                txn.delete(tuple(key))
        txn.commit()
        # Dentry-cache eviction per mutated inode key, right after the
        # commit and before any reply departs (same ordering argument as
        # ops.py's mutation sites): both the old and the new (pid, name)
        # may be cached, and each committed op names exactly one of them.
        if self.config.switch_cache:
            for op in args["ops"]:
                key = op[1]
                if key[0] == "D":
                    self._send_cache_evict(fingerprint_of(key[1], key[2]))
                elif key[0] == "F":
                    self._send_cache_evict(file_cache_fingerprint(key[1], key[2]))
        # Deferred parent updates (file renames, async mode): appended via
        # a self-RPC whose response performs the stale-set INSERT.  The
        # commit completes only once the parents are marked scattered, so
        # the rename's effects are visible to any later directory read.
        async_entries = args.get("async_entries", [])
        if async_entries:
            marks = [
                self.sim.spawn(
                    self.node.call(
                        self.addr, "mark_entry",
                        {"parent_id": pid, "parent_fp": fp, "entry": entry},
                        timeout_us=self.perf.rpc_timeout_us,
                        max_attempts=self.perf.rpc_max_attempts,
                    ),
                    name="mark-entry",
                )
                for pid, fp, entry in async_entries
            ]
            yield AllOf(self.sim, marks)
        # Synchronous parent fix-ups (sync mode, directory renames): the
        # shared apply, under the parent lock round 1 took.
        for parent_key, parent_id, name, add, is_dir, ts in args.get("entry_ops", []):
            entry = ChangeLogEntry(
                timestamp=ts,
                op=ChangeOp.CREATE if add else ChangeOp.DELETE,
                name=name,
                is_dir=is_dir,
            )
            yield from self._apply_entry_with_inode_txn(
                parent_id, entry, frozenset([tuple(parent_key)])
            )
        for dir_id, key in args.get("dir_index", []):
            self._dir_index[dir_id] = tuple(key)
        for dir_id in args.get("dir_index_drop", []):
            self._dir_index.pop(dir_id, None)
        self._release_rename_locks(args["txn_id"])
        return {"status": "ok"}

    def _handle_rename_abort(self, request: RpcRequest, packet: Packet) -> Generator:
        yield self._cpu(self.perf.txn_phase_us)
        self._release_rename_locks(request.args["txn_id"])
        return {"status": "ok"}

    def _release_rename_locks(self, txn_id: int) -> None:
        for lock in self._rename_locks.pop(txn_id, []):
            self._release(lock, "w")
