"""Switch control plane: route installation, failure injection, telemetry.

The control plane is the slow-path management interface a real deployment
drives through the switch OS.  It installs the fingerprint → owner-server
routes the address rewriter needs, injects switch failures for the
recovery drill of §6.7, and exports occupancy / traffic statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .switch import ProgrammableSwitch

__all__ = ["SwitchControlPlane", "SwitchStats"]


@dataclass(frozen=True)
class SwitchStats:
    """Point-in-time data-plane statistics.

    Stale-set occupancy, capacity and op counts, response multicasts and
    the dentry-cache counts: each field has a reader outside the tests
    (the ledger, the measurement window, the benches or the examples),
    and ``tests/analysis/test_reprolint.py`` keeps it that way.  The
    ``cache_*`` fields cover the optional hot-dentry cache and stay
    zero when it is not provisioned (``cache_capacity == 0`` then
    distinguishes "disabled" from "enabled but cold").
    """

    occupancy: int
    capacity: int
    inserts: int
    insert_overflows: int
    removes: int
    queries: int
    multicasts: int
    cache_hits: int = 0
    cache_misses: int = 0
    cache_fills: int = 0
    cache_evictions: int = 0
    cache_occupancy: int = 0
    cache_capacity: int = 0


class SwitchControlPlane:
    """Management handle over the deployment's one programmable switch."""

    def __init__(self, switch: ProgrammableSwitch):
        self.switch = switch
        self._ctl_remove_seq = 0

    def install_routes(self, fingerprint_owner: Callable[[int], str]) -> None:
        """Program the fingerprint → owner-server mapping (fallback path)."""
        self.switch.install_fingerprint_owner(fingerprint_owner)

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
        self.switch.flush_cache()

    def reconcile_stale_set(self, fingerprints: Iterable[int]) -> int:
        """Control-plane removal of stale-set bits after a migration.

        Only safe for fingerprints with **zero** pending change-log
        entries cluster-wide at call time (the driver checks while the
        sources are quiesced): a bit cleared while an entry is pending
        would hide a completed update from readers.  Uses the per-source
        SEQ filter with a dedicated control-plane source id, so a
        retransmitted data-plane REMOVE can never be mistaken for (or
        filtered against) these.  Returns the bits cleared: a fingerprint
        whose bit is already gone (the online drain's REMOVE got through)
        counts for nothing.
        """
        stale_set = self.switch.stale_set
        before = stale_set.occupancy
        for fp in fingerprints:
            self._ctl_remove_seq += 1
            stale_set.remove(fp, source="ctl-plane", seq=self._ctl_remove_seq)
        return before - stale_set.occupancy

    def fail(self) -> None:
        """Crash the switch: all data-plane state is lost (§4.4.2).

        SwitchFS recovery starts from an *empty* stale set and has every
        server flush its change-logs; the cluster drives that flush.
        """
        self.switch.reset()

    def stats(self) -> SwitchStats:
        """Data-plane statistics."""
        switch = self.switch
        s = switch.stale_set
        c = switch.dentry_cache
        cache = {} if c is None else dict(
            cache_hits=c.hits,
            cache_misses=c.misses,
            cache_fills=c.fills,
            cache_evictions=c.evictions,
            cache_occupancy=c.occupancy,
            cache_capacity=c.geometry.capacity,
        )
        return SwitchStats(
            occupancy=s.occupancy,
            capacity=s.geometry.capacity,
            inserts=s.inserts,
            insert_overflows=s.insert_overflows,
            removes=s.removes,
            queries=s.queries,
            multicasts=switch.multicasts,
            **cache,
        )
