"""Live shard migration (elastic scale-out/in of the metadata tier).

A shard is a fixed slice of fingerprint space (``fp % num_shards``); the
membership view maps shards to servers and migration moves that mapping.
The protocol is two-phase, driven by the cluster driver
(:meth:`repro.core.cluster.SwitchFSCluster._migrate_gen`):

* **Phase A (drain, online)** — the current owner aggregates every
  non-empty change-log group in the moving shards, pulling scattered
  entries cluster-wide.  Normal traffic keeps running; this only shrinks
  the backlog phase B must ship.
* **Phase B (cutover, measured stall)** — sources gate new requests
  (recovery gate), quiesce in-flight mutators, then atomically
  :meth:`collect_shards`, ship the package over ``migrate_install``,
  bump the membership epoch, reprogram the switch routes, and
  :meth:`discard_shards`.  Clients routing with the old view get
  ``EWRONGEPOCH`` and refresh.

Entries staged *after* the drain still carry their stale-set bits, so
the first read at the new owner aggregates them; nothing is lost and
(presence-aware application) nothing is double-applied.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Set, Tuple

from ...net import Packet, RpcRequest
from ..schema import file_shard_of

__all__ = ["ShardMigration"]

# Quiesce poll interval (µs of virtual time).  In-flight mutators finish
# in tens of µs; lock watchdogs fire within 20 ms, bounding the wait.
_QUIESCE_POLL_US = 1.0


class ShardMigration:
    """Mixin: shard collect/ship/install primitives for live migration."""

    __slots__ = ()

    def quiesce_for_migration(self) -> Generator:
        """Wait until no mutator can touch this server's shard state.

        Callers must have gated new work first (``begin_recovery``);
        this waits out whatever got past the gate: counted mutators
        (including ones parked on inode locks), registered rename locks
        (their commit/abort handlers are deliberately ungated so the
        transactions can finish), and in-progress group aggregations.
        """
        while self._inflight_mutators or self._rename_locks or self._group_blocks:
            yield self.sim.timeout(_QUIESCE_POLL_US)

    def drain_group_for_migration(self, fingerprint: int) -> Generator:
        """Phase-A drain: aggregate one moving group through the normal
        pull/apply/ack path while traffic keeps flowing."""
        yield from self._aggregate_group(fingerprint)

    def ship_package(self, target: str, package: Dict[str, Any]) -> Generator:
        """Send a collected shard package to its new owner; returns the
        install summary (``installed`` / ``staged`` counts)."""
        return (yield from self._call(target, "migrate_install", package))

    def collect_shards(self, shards: Set[int]) -> Generator:
        """Package every shard-resident datum for shipping.

        The KV capture is synchronous (atomic in virtual time); the
        change-log drains write-hold each group's change-log lock — the
        same ``_take_group`` the aggregation drain uses — so appenders are
        excluded per group.  The source is gated and quiesced, so the
        whole capture is still a consistent cut.  Change-log custody
        transfers with the package: shipped entries are marked applied in
        the local WAL so a later crash-recovery here cannot resurrect
        (and re-push) them.
        """
        num_shards = self.config.num_shards
        kv_pairs: List[Tuple[tuple, Any]] = []
        dir_index: List[Tuple[int, tuple]] = []
        for key, inode in list(self.kv.scan_prefix(("D",))):
            if inode.fingerprint % num_shards not in shards:
                continue
            kv_pairs.append((key, inode))
            dir_index.append((inode.id, key))
            for ekey, entry in list(self.kv.scan_prefix(("E", inode.id))):
                kv_pairs.append((ekey, entry))
        for key, inode in list(self.kv.scan_prefix(("F",))):
            if file_shard_of(key[1], key[2], num_shards) in shards:
                kv_pairs.append((key, inode))
        logs: List[Tuple[int, int, list]] = []
        for fp in list(self.changelogs.non_empty_groups()):
            if fp % num_shards not in shards:
                continue
            lock = yield from self._take_group(fp)
            drained = self.changelogs.drain_group(fp)
            self._release(lock, "w")
            for dir_id, entries, lsns in drained:
                logs.append((dir_id, fp, list(entries)))
                self.wal.mark_applied_many(lsn for lsn in lsns if lsn is not None)
        return {
            "shards": sorted(shards),
            "kv_pairs": kv_pairs,
            "dir_index": dir_index,
            "logs": logs,
        }

    def _stage_locked(self, kv_pairs: List[Tuple[tuple, Any]], stage) -> Generator:
        """``stage(key, value)`` each shipped pair under the lock a
        foreground mutator of that key holds (inode lock for D/F keys, the
        directory's group change-log lock for entry-list keys), one at a
        time — never nested, so no new lock-order edges.  An ``E`` key's
        directory ships in the same package, as a ``D`` inode."""
        fp_of = {inode.id: inode.fingerprint for key, inode in kv_pairs if key[0] == "D"}
        for key, value in kv_pairs:
            lock = yield from self._acquire(
                self._changelog_lock(fp_of[key[1]]) if key[0] == "E" else self._inode_lock(key), "w"
            )
            try:
                stage(key, value)
            finally:
                self._release(lock, "w")

    def discard_shards(self, package: Dict[str, Any]) -> Generator:
        """Drop exactly what :meth:`collect_shards` captured.

        Runs after the install is acknowledged and the epoch bumped; the
        source is still gated and quiesced, so the captured key set is
        still exact.  Deletes are staged under the keys' locks
        (:meth:`_stage_locked`) and committed in one transaction, keeping
        the drop atomic.
        """
        txn = self.kv.transaction()
        yield from self._stage_locked(package["kv_pairs"], lambda key, _value: txn.delete(key))
        txn.commit()
        for dir_id, _key in package["dir_index"]:
            self._dir_index.pop(dir_id, None)
        return len(package["kv_pairs"])

    def _handle_migrate_install(self, request: RpcRequest, packet: Packet) -> Generator:
        """Install a shipped shard package as the new owner.

        Deliberately *not* gated behind the recovery gate: the target is
        live and must accept the package while the sources stall.  No
        client can race it — routes to these shards flip only when the
        epoch bumps, which happens strictly after this returns.  Writes
        are staged under the keys' locks (:meth:`_stage_locked`); the
        transaction commit flips the KV state atomically at the end.
        """
        args = request.args
        yield self._cpu(self.perf.wal_append_us)
        txn = self.kv.transaction()
        yield from self._stage_locked(args["kv_pairs"], txn.put)
        txn.commit()
        for dir_id, key in args["dir_index"]:
            self._dir_index[dir_id] = key
        staged = 0
        for dir_id, fp, entries in args["logs"]:
            yield from self._stage_entries(dir_id, fp, entries)
            staged += len(entries)
            self._note_push(fp)
        # Bulk install is much cheaper per record than the foreground
        # path — same 5% accounting recovery uses for restores.
        yield self._cpu(
            self.perf.kv_put_us * max(1, len(args["kv_pairs"])) * 0.05
        )
        return {
            "status": "ok",
            "installed": len(args["kv_pairs"]),
            "staged": staged,
        }
