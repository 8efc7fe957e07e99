"""Change-log engine (§4.3): push, recast application, idle sweeping,
and the switch-failure flush.

The engine owns everything that moves or applies change-log entries:

* **push** — ship an MTU-full or idle log to the directory's owner;
* **application** — replay pulled logs onto owned directory inodes,
  either entry-by-entry (each its own inode transaction) or **recast**:
  consolidated timestamps mean one inode transaction per directory while
  the commutative entry-list ops fan out across this server's cores;
* **idle sweeper** — the background process pushing logs that have gone
  quiet (§4.3 condition 2);
* **flush** — switch-failure recovery (§4.4.2): send every pending log
  to its owner for immediate application.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ...net import Packet, RpcError, RpcRequest
from ...sim import RWLock
from ..changelog import ChangeLog, ChangeLogEntry
from ..schema import dir_entry, dir_entry_key

__all__ = ["ChangeLogEngine"]

_BY_TIMESTAMP = attrgetter("timestamp")  # stable: ties keep arrival order

#: Push a change-log that has gone this long without an append (§4.3).
IDLE_PUSH_US = 5_000.0


class ChangeLogEngine:
    """Mixin: change-log movement and application."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # lock table for change-logs (one lock per fingerprint group)
    # ------------------------------------------------------------------
    def _changelog_lock(self, fp: int) -> RWLock:
        """The lock over every change-log of group *fp* on this server:
        appenders hold it in read mode, drains in write mode, so a round
        excludes appends to the group whether or not a log exists yet."""
        lock = self._changelog_locks.get(fp)
        if lock is None:
            lock = self._changelog_locks[fp] = RWLock(
                self.sim, name="changelog", scope=self.addr, key=fp,
                table=self._changelog_locks,
            )
        return lock

    def pending_changelog_entries(self) -> int:
        return self.changelogs.pending_entries()

    # ------------------------------------------------------------------
    # push path
    # ------------------------------------------------------------------
    def _push_log(self, log: ChangeLog) -> Generator:
        """Ship one change-log to the directory's owner (MTU-full or idle);
        started only by ``_schedule_push``, for a log another server owns."""
        owner = self.membership.current.dir_owner_by_fp(log.fingerprint)
        lock = yield from self._acquire(self._changelog_lock(log.fingerprint), "w")
        log.push_queued = False
        entries, lsns = log.drain()
        self._release(lock, "w")
        if not entries:
            return
        # While drained-but-not-landed, the entries are in no server's
        # change-log table; the in-flight counter keeps the migration
        # driver's stale-set reconciliation from treating the group as
        # fully settled during that window.
        self._push_inflight_inc(log.fingerprint)
        try:
            try:
                # An owner that lost the group meanwhile stages the entries
                # like any peer; its push or the next pull delivers them.
                # (A group that moved here meanwhile is a call to ourselves.)
                yield from self._call(
                    owner,
                    "changelog_push",
                    {
                        "dir_id": log.dir_id,
                        "fp": log.fingerprint,
                        "entries": entries,
                        "from": self.addr,
                    },
                )
            except RpcError:
                # Push failed (owner slow/dead): restore entries for a later
                # push or pull; order within one log does not matter
                # (commutative).
                yield from self._append_entries(log.dir_id, log.fingerprint, entries, lsns)
                return
            self.counters.inc("proactive_pushes")
            self.wal.mark_applied_many(lsns)
        finally:
            self._push_inflight_dec(log.fingerprint)

    def _push_inflight_inc(self, fp: int) -> None:
        self._push_inflight[fp] = self._push_inflight.get(fp, 0) + 1

    def _push_inflight_dec(self, fp: int) -> None:
        remaining = self._push_inflight.get(fp, 0) - 1
        if remaining > 0:
            self._push_inflight[fp] = remaining
        else:
            self._push_inflight.pop(fp, None)

    def _handle_changelog_push(self, request: RpcRequest, packet: Packet) -> Generator:
        """Receive a pushed change-log; stage it locally and schedule a
        grace-period aggregation."""
        args = request.args
        yield from self._wait_recovered()
        yield self._cpu(self.perf.wal_append_us)
        yield from self._stage_entries(args["dir_id"], args["fp"], args["entries"])
        self._note_push(args["fp"])
        return {"status": "ok"}

    def _stage_entries(self, dir_id: int, fp: int, entries: List[ChangeLogEntry]) -> Generator:
        """Take custody of entries another server shipped (a push, a
        misrouted flush, a migrated shard): WAL-log them, then append them
        to this server's change-log for the directory.
        """
        lsns = self.wal.append_many("changelog", [(dir_id, fp, entry) for entry in entries])
        yield from self._append_entries(dir_id, fp, entries, lsns)

    def _append_entries(
        self, dir_id: int, fp: int, entries: List[ChangeLogEntry], lsns: List[int]
    ) -> Generator:
        """Append WAL-logged entries to this server's change-log for the
        directory.  Appender discipline (same as create/delete/mkdir): hold
        the group's change-log lock in read mode across the extend, so a
        drain (the write-holder) never sees entries land mid-round."""
        cl_lock = yield from self._acquire(self._changelog_lock(fp), "r")
        try:
            self.changelogs.extend(dir_id, fp, entries, lsns, self.sim.now)
        finally:
            self._release(cl_lock, "r")

    def _idle_push_sweeper(self) -> Generator:
        """Periodically push change-logs that have gone idle (§4.3 cond. 2)."""
        interval = IDLE_PUSH_US
        while True:
            yield self.sim.timeout(interval / 2)
            now = self.sim.now
            for fp in self.changelogs.non_empty_groups():
                for log in self.changelogs.logs_in_group(fp):
                    if now - log.last_append_at >= interval:
                        self._schedule_push(log)

    # ------------------------------------------------------------------
    # application: raw replay or recast
    # ------------------------------------------------------------------
    def _apply_logs(
        self,
        pulled: List[Tuple[int, List[ChangeLogEntry], Optional[List[int]]]],
        already_locked: frozenset = frozenset(),
    ) -> Generator:
        """Apply aggregated change-logs to the owned directory inodes.

        With **recast** (§4.3): entries' timestamps were consolidated, so
        each directory needs one inode transaction; the entry-list ops are
        independent and run in parallel across this server's cores.

        Without recast (+Async ablation): each entry replays as its own
        inode transaction, serialising on the directory inode.
        """
        for dir_id, entries, _lsns in pulled:
            if not entries:
                continue
            if self.config.recast:
                yield from self._apply_recast(dir_id, entries, already_locked)
            else:
                for entry in sorted(entries, key=lambda e: e.timestamp):
                    yield self._cpu(self.perf.txn_phase_us)
                    yield from self._apply_entry_with_inode_txn(dir_id, entry, already_locked)

    def _apply_recast(
        self,
        dir_id: int,
        entries: List[ChangeLogEntry],
        already_locked: frozenset = frozenset(),
    ) -> Generator:
        key = self._dir_index.get(dir_id)
        if key is None:
            return  # directory no longer exists here
        max_ts = max(e.timestamp for e in entries)

        # The per-entry CPU charge fans out across cores; the entry-list
        # mutations themselves are batched into one grouped KV transaction
        # (one WAL record per directory) after the barrier.  Group
        # read-blocking (§4.3) means nobody observes the list in between.
        yield self.charge_cpu_all(len(entries), self.perf.dir_entry_put_us)
        delta = self._apply_entries_to_list(dir_id, entries)

        lock = None
        if key not in already_locked:
            lock = yield from self._acquire(self._inode_lock(key), "w")
        try:
            yield self._cpu(self.perf.dir_inode_update_us)
            inode = self.kv.get_or_none(key)
            if inode is not None:
                self.kv.put(key, inode.touched(max_ts, delta))
        finally:
            if lock is not None:
                self._release(lock, "w")

    def _apply_entries_to_list(self, dir_id: int, entries: Sequence[ChangeLogEntry]) -> int:
        """Apply a recast log's op queue, or one entry, in one grouped KV
        transaction; returns the entry-count delta.

        One WAL record covers the whole batch, and a batch that changes
        nothing (a delete of an absent name) logs none.  Presence-aware,
        so re-application (recovery, a duplicated flush) never corrupts
        the count.  Presence is tracked through a name→present overlay so
        later ops in the batch see earlier ones (a create+delete of the
        same name nets to zero), matching what per-entry application in
        timestamp order would produce; a batch merged from several servers
        arrives in no such order.
        """
        txn = self.kv.transaction()
        present: Dict[str, bool] = {}
        delta = 0
        kv = self.kv
        for entry in sorted(entries, key=_BY_TIMESTAMP):
            name = entry.name
            was = present.get(name)
            if was is None:
                was = dir_entry_key(dir_id, name) in kv
            if entry.op.adds_entry:
                txn.put(dir_entry_key(dir_id, name), dir_entry(entry.is_dir, entry.perm))
                if not was:
                    delta += 1
                present[name] = True
            else:
                if was:
                    txn.delete(dir_entry_key(dir_id, name))
                    delta -= 1
                present[name] = False
        txn.commit()
        return delta

    # ------------------------------------------------------------------
    # switch-failure flush (§4.4.2)
    # ------------------------------------------------------------------
    def flush_all_changelogs(self) -> Generator:
        """Send every pending change-log to its directory's owner (switch
        failure recovery, §4.4.2).  Returns when all are applied."""
        drained = self.changelogs.drain_all()
        by_owner: Dict[str, List[Tuple[int, int, List[ChangeLogEntry]]]] = {}
        lsns_all: List[int] = []
        local: List[Tuple[int, List[ChangeLogEntry], Optional[List[int]]]] = []
        for dir_id, fp, entries, lsns in drained:
            owner = self.membership.current.dir_owner_by_fp(fp)
            if owner == self.addr:
                local.append((dir_id, entries, lsns))
            else:
                by_owner.setdefault(owner, []).append((dir_id, fp, entries))
                lsns_all.extend(lsns)
        if local:
            yield from self._apply_logs(local)
            for _d, _e, lsns in local:
                self.wal.mark_applied_many(lsns or [])
        remote_fps = [fp for logs in by_owner.values() for _d, fp, _e in logs]
        for fp in remote_fps:
            self._push_inflight_inc(fp)
        try:
            for owner, logs in by_owner.items():
                # _handle_flush_apply re-stages groups routed to it with a
                # stale view.
                yield from self._call(owner, "flush_apply", {"logs": logs})
        finally:
            for fp in remote_fps:
                self._push_inflight_dec(fp)
        self.wal.mark_applied_many(lsns_all)
        return len(drained)

    def _handle_flush_apply(self, request: RpcRequest, packet: Packet) -> Generator:
        """Switch-failure recovery: another server flushes its change-logs
        for directories we own; apply them immediately.

        A flush routed with a stale membership view may carry groups this
        server no longer (or does not yet) own — those are re-staged and
        pushed to the live owner rather than silently dropped (the
        ``_apply_recast`` fast path returns early on unknown dir ids)."""
        args = request.args
        yield self._cpu(self.perf.wal_append_us)
        pulled, fps = [], set()
        for dir_id, fp, entries in args["logs"]:
            if self.membership.current.dir_owner_by_fp(fp) == self.addr:
                pulled.append((dir_id, entries, None))
                fps.add(fp)
                continue
            yield from self._stage_entries(dir_id, fp, entries)
            self._schedule_push(self.changelogs.log_for(dir_id, fp))
        if pulled:
            # Write-hold each group's change-log lock across the apply (the
            # same discipline the aggregation drain uses): appenders are
            # excluded while the pulled entries land.  Every server flushes
            # to this owner in its own drain order, so the locks are taken
            # in fingerprint order: two handlers holding one lock each and
            # waiting for the other's would never finish (DESIGN §12.4).
            # This runs behind the recovery gate, which admits no new
            # aggregation.
            locks = []
            for fp in sorted(fps):
                lock = yield from self._acquire(self._changelog_lock(fp), "w")
                locks.append(lock)
            try:
                agg_lsn = self.wal.append("agg", [(d, e) for d, e, _ in pulled])
                yield from self._apply_logs(pulled)
                self.wal.mark_applied_if_present(agg_lsn)
            finally:
                for lock in locks:
                    self._release(lock, "w")
        return {"status": "ok"}
