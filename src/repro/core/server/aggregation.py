"""Metadata aggregation (§4.2.2, §4.3): pull / apply / ack, plus the
proactive (push-triggered) aggregation policy.

A scattered directory read triggers an aggregation: block reads on the
fingerprint group, pull change-logs from all servers, apply them (see
:mod:`repro.core.server.changelog_engine` for recast application),
multicast an acknowledgment carrying a ``REMOVE`` stale-set header,
unblock.  Remote change-logs stay write-locked from the pull until the
ack (§4.2.2 step 9a) — the back-pressure that bounds sustained update
throughput by the application rate (§6.5.1).

Proactive aggregation (§4.3): pushes stage change-logs at the directory
owner, and the owner aggregates once pushes quiesce for a grace period
(capped by ``GRACE_CAP_US`` so continuous load cannot defer forever).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ...net import Packet, RpcRequest, RpcTimeout, StaleSetHeader, StaleSetOp
from ..changelog import ChangeLog, ChangeLogEntry
from .ops import UNLOCK_WATCHDOG_US

__all__ = ["AggregationProtocol"]

GRACE_PERIOD_US = 50.0  # quiet window before a proactive aggregation
GRACE_CAP_US = 500.0    # aggregate at latest this long after the first
                        # pending push, even if pushes keep arriving


class AggregationProtocol:
    """Mixin: group aggregation, pull-lock discipline, and proactive policy."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # group read-blocks
    # ------------------------------------------------------------------
    def _wait_group_unblocked(self, fp: int) -> Generator:
        """Wait while an aggregation blocks reads on the fingerprint group."""
        while fp in self._group_blocks:
            yield self._group_blocks[fp]

    # ------------------------------------------------------------------
    # aggregation proper
    # ------------------------------------------------------------------
    def _aggregate_group(self, fp: int) -> Generator:
        """Aggregate every change-log in the fingerprint group onto the
        directories this server owns."""
        yield from self._wait_recovered()
        if self.membership.current.dir_owner_by_fp(fp) != self.addr:
            # Ownership moved underneath a queued aggregation (migration
            # bumped the epoch while we waited): the new owner drives
            # aggregation for this group now, and any entries still staged
            # here leave via the push path — aggregating would pull the
            # cluster's logs onto a server that no longer holds the inodes
            # and silently drop them.
            return
        if fp in self._group_blocks:
            # Someone else is already aggregating: piggyback on them.
            yield from self._wait_group_unblocked(fp)
            return
        yield from self._aggregation_round(fp)
        self.counters.inc("aggregations")

    def _aggregation_round(
        self, fp: int, invalidate: Optional[int] = None,
        already_locked: frozenset = frozenset(),
    ) -> Generator:
        """One aggregation round (§4.2.2 steps 4-9): block reads on the
        group, pull every peer's change-logs, apply them together with
        ours, acknowledge with REMOVE, unblock.

        rmdir's round (Figure 5) is the same one behind an invalidation:
        *invalidate* goes on every peer's invalidation list with the pull
        and on ours once they answered.  *already_locked* names the inode
        keys the caller write-holds, and *fp* itself when the caller
        write-holds the group's change-log lock (an rmdir whose directory
        shares its parent's fingerprint).
        """
        block = self.sim.event()
        self._group_blocks[fp] = block
        try:
            # The round's peers are fixed here: a reply is paired with the
            # peer it was asked of, and the ack and any revert go to exactly
            # the peers that answered, whatever the membership is by then.
            others = self.membership.current.others(self.addr)
            method, args = "agg_pull", {"fp": fp}
            if invalidate is not None:
                method, args = "invalidate_and_pull", {"dir_id": invalidate, "fp": fp}
            results, silent = [], None
            if others:
                try:
                    results = yield from self._multicast(others, method, args)
                except RpcTimeout as exc:
                    # A peer is silent, but the ones that answered drained
                    # their logs into these replies: land those first
                    # (§4.4), then fail.  No REMOVE and no invalidation —
                    # the silent peer may hold entries, so the stale-set
                    # bit stays and the next read aggregates again.
                    silent = exc
                    answered = [(o, r) for o, r in zip(others, exc.values) if r is not None]
                    others, results = [o for o, _ in answered], [r for _, r in answered]
            if invalidate is not None and silent is None:
                self.inval.insert(invalidate)
            local_lock = None
            if fp not in already_locked:
                local_lock = yield from self._take_group(fp)
            try:
                local = self.changelogs.drain_group(fp)
                pulled = self._merge_pulled(results, local)
                if pulled:
                    yield self._cpu(self.perf.wal_append_us)
                    agg_lsn = self.wal.append("agg", [(d, e) for d, e, _ in pulled])
                    yield from self._apply_logs(pulled, already_locked)
                    # Committed: the batch needs no replay, so its payload
                    # goes.  A checkpoint during the apply may already
                    # have truncated the record.
                    self.wal.mark_applied_if_present(agg_lsn)
                yield from self._send_agg_ack(fp, others, results, local, remove=silent is None)
            finally:
                if local_lock is not None:
                    self._release(local_lock, "w")
            if silent is not None:
                if invalidate is not None and others:
                    yield from self._multicast(others, "uninvalidate", {"dir_id": invalidate})
                raise silent
        finally:
            del self._group_blocks[fp]
            block.succeed()

    def _take_group(self, fp: int) -> Generator:
        """Write-lock the group's change-log lock and return it, whether or
        not this server holds entries for the group: an append that comes
        after the drain must wait for the round's ack, or the ack's REMOVE
        would clear the stale-set bit its INSERT set.  The caller drains
        under the lock and releases it after application (locally) or at
        the ack (pull side)."""
        return (yield from self._acquire(self._changelog_lock(fp), "w"))

    def _merge_pulled(
        self,
        remote_results: List[Dict[str, Any]],
        local: List[Tuple[int, List[ChangeLogEntry], List[int]]],
    ) -> List[Tuple[int, List[ChangeLogEntry], Optional[List[int]]]]:
        """Combine remote pull results and locally drained logs per directory."""
        merged: Dict[int, List[ChangeLogEntry]] = {}
        for result in remote_results:
            for dir_id, entries in result["logs"]:
                merged.setdefault(dir_id, []).extend(entries)
        local_lsns: Dict[int, List[int]] = {}
        for dir_id, entries, lsns in local:
            merged.setdefault(dir_id, []).extend(entries)
            local_lsns[dir_id] = lsns
        return [
            (dir_id, entries, local_lsns.get(dir_id)) for dir_id, entries in merged.items()
        ]

    def _send_agg_ack(
        self,
        fp: int,
        others: List[str],
        remote_results: List[Dict[str, Any]],
        local: List[Tuple[int, List[ChangeLogEntry], List[int]]],
        remove: bool = True,
    ) -> Generator:
        """Multicast the aggregation acknowledgment.

        Each copy carries a REMOVE stale-set header (same SEQ): the switch
        executes the first and filters the duplicates (§4.4.1).  Receivers
        mark their shipped WAL records as applied.  Local records are
        marked directly.  Without *remove* (a round that reached only some
        peers) the acks are plain and the directory stays scattered.
        """
        header = None
        if remove:
            self._remove_seq += 1
            if self.ss is not None:
                # Server backend: one explicit remove RPC, and plain acks
                # once it is answered.  The acks release the pull locks, so
                # a REMOVE resent after them could land behind an
                # appender's new INSERT and clear its bit.  A remove that
                # exhausts its attempts does not fail the round: a bit
                # left set only makes the next read aggregate again.
                try:
                    yield from self.ss.remove(fp, self.addr, self._remove_seq)
                except RpcTimeout:
                    pass
            else:
                header = StaleSetHeader(
                    op=StaleSetOp.REMOVE, fingerprint=fp, seq=self._remove_seq
                )
        if others:
            # One sweep for the whole ack multicast: every copy shares the
            # immutable header but carries its own LSN list.
            self.node.notify_many(
                (
                    (other, {"fp": fp, "lsns": result.get("lsns", [])})
                    for other, result in zip(others, remote_results)
                ),
                "agg_ack",
                header=header,
            )
        elif header is not None:
            # Single-server cluster: still clear the switch state.
            self.node.notify(self.addr, "agg_ack", {"fp": fp, "lsns": []}, header=header)
        for _dir_id, _entries, lsns in local:
            self.wal.mark_applied_many(lsns)

    # ------------------------------------------------------------------
    # pull side: hand over change-logs, hold locks until the ack
    # ------------------------------------------------------------------
    def _handle_agg_pull(self, request: RpcRequest, packet: Packet) -> Generator:
        """Another server aggregates a group: hand over our change-logs."""
        return self._hand_over_group(request.args["fp"])

    def _handle_invalidate_and_pull(self, request: RpcRequest, packet: Packet) -> Generator:
        """rmdir at another server: invalidate locally, ship the group's logs."""
        args = request.args
        return self._hand_over_group(args["fp"], invalidate=args["dir_id"])

    def _hand_over_group(self, fp: int, invalidate: Optional[int] = None) -> Generator:
        """Pull side of a round: drain the group's logs into the reply,
        after invalidating rmdir's directory id if one came with the pull.

        The write locks taken here are **held until the aggregation
        acknowledgment** (§4.2.2 step 9a), not released at reply time:
        while the aggregator applies the group's updates, no new entries
        may be appended for it anywhere.  This back-pressure is what bounds
        sustained update throughput by the application rate — the effect
        the +Async/+Recast ablation of §6.5.1 measures.  A second pull of
        the group queues on the lock behind the first until that one's ack.
        """
        lock = yield from self._take_group(fp)
        self._pull_locks[fp] = lock
        # Released by the ack, or by the watchdog if the ack is lost (UDP).
        self._pull_wd[fp] = (self.sim.now + UNLOCK_WATCHDOG_US, lock)
        self._arm_watchdog()
        yield self._cpu(self.perf.kv_get_us)
        if invalidate is not None:
            self.inval.insert(invalidate)
        drained = self.changelogs.drain_group(fp)
        return {
            "logs": [(dir_id, entries) for dir_id, entries, _ in drained],
            "lsns": [lsn for _d, _e, lsn_list in drained for lsn in lsn_list],
        }

    def _release_pull_locks(self, fp: int) -> None:
        lock = self._pull_locks.pop(fp, None)
        if lock is not None:
            self._release(lock, "w")

    def _handle_agg_ack(self, request: RpcRequest, packet: Packet) -> Generator:
        """Aggregation done: unlock change-logs, mark shipped WAL records."""
        yield self._cpu(self.perf.changelog_append_us)
        fp = request.args.get("fp")
        if fp is not None:
            self._release_pull_locks(fp)
        self.wal.mark_applied_many(request.args.get("lsns", []))

    # ------------------------------------------------------------------
    # rmdir support: invalidation
    # ------------------------------------------------------------------
    def _handle_uninvalidate(self, request: RpcRequest, packet: Packet) -> Generator:
        yield self._cpu(self.perf.changelog_append_us)
        self.inval.discard(request.args["dir_id"])

    def _handle_aggregate_now(self, request: RpcRequest, packet: Packet) -> Generator:
        """Force-aggregate a fingerprint group (rename preparation)."""
        fp = request.args["fp"]
        yield from self._wait_recovered()
        # A stale-view caller asking a non-owner to aggregate must be
        # redirected: _aggregate_group would no-op and the caller would
        # proceed believing the group was consolidated.
        self._check_owner_dir(fp)
        yield from self._wait_group_unblocked(fp)
        yield from self._aggregate_group(fp)
        return {"status": "ok"}

    # ------------------------------------------------------------------
    # proactive aggregation policy (§4.3)
    # ------------------------------------------------------------------
    def _maybe_push(self, log: ChangeLog) -> None:
        """Push a log once it fills an MTU (§4.3 condition 1)."""
        if self.config.proactive_enabled and len(log) >= self.config.proactive_push_entries:
            self._schedule_push(log)

    def _schedule_push(self, log: ChangeLog) -> None:
        """Start a push of *log*: the one place a push begins.

        A log this server owns has nothing to ship: its entries are
        already where the aggregation drain looks for them, so the push
        only nudges the grace-period aggregation.  Otherwise at most one
        push per log is queued.  A queued push waits for the group's
        change-log lock in write mode and drains everything appended
        meanwhile, so a second one would only take the lock again, park
        the appenders behind it and ship nothing.
        """
        if self.membership.current.dir_owner_by_fp(log.fingerprint) == self.addr:
            self._note_push(log.fingerprint)
            return
        if log.push_queued:
            return
        log.push_queued = True
        self.sim.spawn(self._push_log(log), name=f"push-{self.addr}")

    def _note_push(self, fp: int) -> None:
        self._last_push_at[fp] = self.sim.now
        if not self._grace_pending.get(fp):
            self._grace_pending[fp] = True
            self.sim.spawn(self._grace_aggregate(fp), name=f"grace-{self.addr}")

    def _grace_aggregate(self, fp: int) -> Generator:
        """Aggregate once pushes quiesce for a grace period (§4.3).

        Under a continuous update stream the quiet window would never
        arrive, so ``GRACE_CAP_US`` bounds the total deferral: at latest
        that long after the first pending push, aggregation proceeds —
        this keeps change-logs bounded and is what throttles sustained
        update throughput to the application rate.
        """
        grace = GRACE_PERIOD_US
        deadline = self.sim.now + GRACE_CAP_US
        while True:
            since = self.sim.now - self._last_push_at.get(fp, 0.0)
            wait = min(grace - since, deadline - self.sim.now)
            # The epsilon guard prevents a float-precision spin: at large
            # virtual times a sub-resolution timeout fires without
            # advancing the clock.
            if wait <= 1e-6:
                break
            yield self.sim.timeout(wait)
        self._grace_pending[fp] = False
        yield from self._wait_group_unblocked(fp)
        yield from self._aggregate_group(fp)
