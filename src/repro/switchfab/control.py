"""Switch control plane: route installation, failure injection, telemetry.

The control plane is the slow-path management interface a real deployment
drives through the switch OS.  It installs the fingerprint → owner-server
routes the address rewriter needs, injects switch failures for the
recovery drill of §6.7, and exports occupancy / traffic statistics — for
every programmable switch of the deployment at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..net.topology import switch_of_fingerprint
from .switch import ProgrammableSwitch

__all__ = ["SwitchControlPlane", "SwitchStats"]


@dataclass(frozen=True)
class SwitchStats:
    """Point-in-time data-plane statistics.

    The ``cache_*`` fields cover the optional hot-dentry cache and stay
    zero when it is not provisioned (``cache_capacity == 0`` then
    distinguishes "disabled" from "enabled but cold").
    """

    occupancy: int
    capacity: int
    inserts: int
    insert_overflows: int
    removes: int
    removes_filtered: int
    queries: int
    forwarded: int
    multicasts: int
    redirects: int
    cache_hits: int = 0
    cache_misses: int = 0
    cache_fills: int = 0
    cache_evictions: int = 0
    cache_occupancy: int = 0
    cache_capacity: int = 0


class SwitchControlPlane:
    """Management handle over every programmable switch of a deployment.

    One switch on a single rack, one per spine on leaf-spine; a
    fingerprint's state lives at :meth:`switch_for` and nowhere else, so
    routes, flushes, failure and reconciliation are written once over the
    whole sequence and :meth:`stats` is its sum.
    """

    def __init__(self, switches: Sequence[ProgrammableSwitch]):
        self.switches = tuple(switches)
        self._ctl_remove_seq = 0

    def switch_for(self, fingerprint: int) -> ProgrammableSwitch:
        """The switch whose tables hold *fingerprint*."""
        return self.switches[switch_of_fingerprint(fingerprint, len(self.switches))]

    def install_routes(self, fingerprint_owner: Callable[[int], str]) -> None:
        """Program the fingerprint → owner-server mapping (fallback path)."""
        for switch in self.switches:
            switch.install_fingerprint_owner(fingerprint_owner)

    def apply_epoch(self, view) -> None:
        """Reprogram the data plane for a new membership epoch.

        Installs the new view's fingerprint → owner routes (the overflow
        rewriter must redirect to the *new* owner from the first packet of
        the new epoch).  Must run **before** the migration sources
        unblock: stale-set bits are fingerprint-keyed and
        ownership-agnostic, so the bits themselves need no rewrite — the
        routes are the only switch state that encodes ownership.

        The dentry cache, by contrast, holds whole replies that may name
        owners from the outgoing epoch, so its lines are flushed at
        cutover (DESIGN.md §15) — a cold cache is always safe.
        """
        self.install_routes(view.dir_owner_by_fp)
        for switch in self.switches:
            switch.flush_cache()

    def reconcile_stale_set(self, fingerprints: Iterable[int]) -> int:
        """Control-plane removal of stale-set bits after a migration.

        Only safe for fingerprints with **zero** pending change-log
        entries cluster-wide at call time (the driver checks while the
        sources are quiesced): a bit cleared while an entry is pending
        would hide a completed update from readers.  Uses the per-source
        SEQ filter with a dedicated control-plane source id, so a
        retransmitted data-plane REMOVE can never be mistaken for (or
        filtered against) these; one counter serves every switch, since
        each switch only needs its own share to be increasing.  Returns
        the bits cleared: a fingerprint whose bit is already gone (the
        online drain's REMOVE got through) counts for nothing.
        """
        cleared = 0
        for fp in fingerprints:
            self._ctl_remove_seq += 1
            stale_set = self.switch_for(fp).stale_set
            before = stale_set.occupancy
            stale_set.remove(fp, source="ctl-plane", seq=self._ctl_remove_seq)
            cleared += before - stale_set.occupancy
        return cleared

    def fail(self) -> None:
        """Crash every switch: all data-plane state is lost (§4.4.2).

        SwitchFS recovery starts from *empty* stale sets and has every
        server flush its change-logs; the cluster drives that flush.
        """
        for switch in self.switches:
            switch.reset()

    def stats(self) -> SwitchStats:
        """Data-plane statistics, summed over the switches."""
        switches = self.switches
        sets = [sw.stale_set for sw in switches]
        caches = [sw.dentry_cache for sw in switches if sw.dentry_cache is not None]
        return SwitchStats(
            occupancy=sum(s.occupancy for s in sets),
            capacity=sum(s.geometry.capacity for s in sets),
            inserts=sum(s.inserts for s in sets),
            insert_overflows=sum(s.insert_overflows for s in sets),
            removes=sum(s.removes for s in sets),
            removes_filtered=sum(s.removes_filtered for s in sets),
            queries=sum(s.queries for s in sets),
            forwarded=sum(sw.forwarded for sw in switches),
            multicasts=sum(sw.multicasts for sw in switches),
            redirects=sum(sw.redirects for sw in switches),
            cache_hits=sum(c.hits for c in caches),
            cache_misses=sum(c.misses for c in caches),
            cache_fills=sum(c.fills for c in caches),
            cache_evictions=sum(c.evictions for c in caches),
            cache_occupancy=sum(c.occupancy for c in caches),
            cache_capacity=sum(c.geometry.capacity for c in caches),
        )
