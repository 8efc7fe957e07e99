"""Fault tolerance (§4.4): crash, WAL/checkpoint recovery, and the
invalidation-list clone.

A crash loses all DRAM state; the WAL survives.  Recovery restores the
latest checkpoint image (if one exists), replays the WAL tail, rebuilds
change-logs from unapplied ``changelog`` records, rebuilds the directory
index from the recovered KV space, and clones the invalidation list from
a peer.  The recovery gate in :class:`~repro.core.server.ServerRuntime`
blocks operations for the duration (§4.4.2).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from ...net import Packet, RpcError, RpcRequest

__all__ = ["CrashRecovery"]


class CrashRecovery:
    """Mixin: checkpointing, crash, and WAL-replay recovery."""

    __slots__ = ()

    def _handle_clone_invalidation(self, request: RpcRequest, packet: Packet) -> Generator:
        yield self._cpu(self.perf.kv_get_us)
        return {"ids": self.inval.snapshot()}

    def checkpoint(self) -> Generator:
        """Persist a checkpoint and truncate the WAL (§6.7's optimisation).

        Captures a point-in-time image of the DRAM state (KV space,
        change-logs, invalidation list, directory index) atomically in
        virtual time, marks every captured WAL record applied, and drops
        the applied prefix.  Recovery then restores the image and replays
        only the WAL tail, making recovery time proportional to the work
        since the last checkpoint instead of since boot.
        """
        # State capture is synchronous (no yields), hence atomic w.r.t.
        # concurrently running workflows.
        image = {
            "kv": self.kv.snapshot(),
            "changelogs": [
                (dir_id, fp, list(entries), list(lsns))
                for dir_id, fp, entries, lsns in self._changelog_state()
            ],
            "inval": self.inval.snapshot(),
            "dir_index": dict(self._dir_index),
        }
        covered = [r.lsn for r in self.wal.replay()]
        self._checkpoint_image = image
        for lsn in covered:
            self.wal.mark_applied(lsn)
        self.wal.checkpoint()
        # Charge background CPU proportional to the image size.
        yield self._cpu(self.perf.kv_put_us * max(1, len(image["kv"])) * 0.002)
        return len(image["kv"])

    def _changelog_state(self):
        for fp in self.changelogs.non_empty_groups():
            for log in self.changelogs.logs_in_group(fp):
                yield log.dir_id, log.fingerprint, log.entries, log.wal_lsns

    def crash(self) -> None:
        """Lose all DRAM state; the WAL survives (§4.4.2)."""
        self.node.kill()
        self.kv.crash()
        self.node.clear_reply_cache()
        # A lock fetched before the crash points back at its old table;
        # emptied, that table makes _acquire refuse the stale handle.
        self._inode_locks.clear()
        self._changelog_locks.clear()
        self._lose_dram()

    def recover(self, peer: Optional[str] = None) -> Generator:
        """Rebuild DRAM state from the WAL; clone the invalidation list.

        Returns the number of WAL records replayed.  Recovery time is the
        simulated duration of this process (one CPU charge per record,
        §6.7).
        """
        self.begin_recovery()
        self.node.revive()
        # Restore the latest checkpoint image first (if any); the WAL then
        # only holds the tail written since that checkpoint.
        image = self._checkpoint_image
        if image is not None:
            self.kv.restore(image["kv"])
            for dir_id, fp, entries, lsns in image["changelogs"]:
                self.changelogs.load(dir_id, fp, entries, lsns)
            self.inval.restore(image["inval"])
            self._dir_index.update(image["dir_index"])
        replayed = self.kv.recover()
        # Rebuild change-logs from unapplied change-log records, grouped by
        # directory so each log takes one batched extend.
        changelog_records = [
            r for r in self.wal.replay() if r.kind == "changelog"
        ]
        grouped: Dict[Tuple[int, int], Tuple[list, list]] = {}
        for record in changelog_records:
            dir_id, fp, entry = record.payload
            entries, lsns = grouped.setdefault((dir_id, fp), ([], []))
            entries.append(entry)
            lsns.append(record.lsn)
        for (dir_id, fp), (entries, lsns) in grouped.items():
            self.changelogs.extend(dir_id, fp, entries, lsns, self.sim.now)
        # Rebuild the dir index and entry counts from the recovered KV state.
        for key, inode in list(self.kv.scan_prefix(("D",))):
            self._dir_index[inode.id] = key
        total = replayed + len(changelog_records)
        yield self._cpu(self.perf.kv_put_us * max(1, total) * 0.01)
        # Recovery CPU: bulk replay is much cheaper per record than the
        # foreground path; 1% of a kv_put per record matches the ~5.8 s /
        # 2.5 M records rate of §6.7 when scaled.
        if peer is not None:
            try:
                value = yield from self._call(
                    peer, "clone_invalidation", {}, max_attempts=3
                )
                self.inval.restore(value["ids"])
            except RpcError:
                # Peer down too (correlated failure): proceed with an empty
                # list — directories invalidated before the crash have no
                # surviving inode, so their operations fail with ENOENT.
                pass
        self.end_recovery()
        return total
