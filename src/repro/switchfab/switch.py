"""The programmable switch data plane (§5.2, Figure 7).

:class:`ProgrammableSwitch` is a :class:`~repro.net.topology.SwitchDevice`
combining the paper's components:

* **Parser** — extracts the stale-set header from a packet that carries
  one (exercising the byte codec end-to-end);
* **Router** — a packet without a header forwards by destination;
* **Stale set** — one table.  Figure 7's split of the set over egress
  pipes (and the mirroring between them) is not modelled (DESIGN.md §3);
* **Address rewriter** — on insert overflow, rewrites the destination to
  the directory's owner server so updates fall back to synchronous mode.

The control-plane surface (the slow path a real deployment drives
through the switch OS) is a handful of methods on the same class:
:meth:`~ProgrammableSwitch.install_fingerprint_owner` programs the
fallback routes, :meth:`~ProgrammableSwitch.apply_epoch` reprograms them
at a membership cutover, :meth:`~ProgrammableSwitch.reset` is a switch
failure (§6.7), and :meth:`~ProgrammableSwitch.stats` exports
:class:`SwitchStats`.  Short of a reset, only a round's REMOVE clears a
stale-set bit (§4.2.2 step 9).

Behaviour per stale-set op:

* ``QUERY``  — RET := membership; forward to the original destination.
* ``INSERT`` — on success RET := 1 and the packet is **multicast** to both
  the destination (client: operation complete) and the source (server:
  unlock notification) — workflow step 6/7 of Figure 4.  On overflow
  RET := 0 and the packet is **redirected** to the fingerprint's owner
  server for synchronous fallback.
* ``REMOVE`` — executed through the per-source SEQ duplicate filter;
  forwarded to the original destination either way.

With a :class:`~repro.switchfab.dentry_cache.DentryCache` provisioned
(``cache_config``), three more ops are handled (DESIGN.md §15):

* ``LOOKUP`` — on a cache hit the switch **fabricates the RPC reply**
  (RET := 1, destination rewritten back to the requesting client) and
  consumes the request: the server is never touched.  On a miss the
  request forwards unchanged, so the server sees the ``LOOKUP`` header
  and attaches a ``FILL`` to its reply.
* ``FILL`` — a successful server reply installs a cache line on its way
  back to the client; the reply forwards unchanged.
* ``EVICT`` — invalidates any matching line and is **consumed** (the
  switch is the packet's real destination).  Stale-set ``INSERT`` s also
  evict the matching line, coupling the cache to the coherence machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..net.packet import Packet, StaleSetHeader, StaleSetOp
from ..net.rpc import RpcResponse
from .dentry_cache import DentryCache
from .pipeline import TableGeometry
from .stale_set import StaleSet

__all__ = ["ProgrammableSwitch", "SwitchStats"]


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


class ProgrammableSwitch:
    """Tofino-style switch model: one stale set, at most one dentry cache."""

    def __init__(
        self,
        stale_config: TableGeometry,
        latency_us: float = 0.05,
        fingerprint_owner: Optional[Callable[[int], str]] = None,
        cache_config: Optional[TableGeometry] = None,
    ):
        self.latency_us = latency_us
        self.stale_set = StaleSet(stale_config)
        self.dentry_cache: Optional[DentryCache] = (
            DentryCache(cache_config) if cache_config is not None else None
        )
        self._fingerprint_owner = fingerprint_owner
        self.multicasts = 0

    # -- control plane hooks -------------------------------------------------
    def install_fingerprint_owner(self, fn: Callable[[int], str]) -> None:
        """Install the fingerprint → owner-server route (used for fallback)."""
        self._fingerprint_owner = fn

    def reset(self) -> None:
        """Switch failure: all data-plane state is lost (§4.4.2).

        The dentry cache cold-starts with the stale set — a rebooted
        switch serves no hits until ``FILL`` replies repopulate it.
        """
        self.stale_set.reset()
        if self.dentry_cache is not None:
            self.dentry_cache.reset()

    def flush_cache(self) -> None:
        """Drop every dentry-cache line (epoch cutover, DESIGN.md §15).

        Unlike :meth:`reset` this preserves the stale set, whose bits are
        ownership-agnostic; cached replies may name owners from the
        outgoing epoch and are simply invalidated.
        """
        if self.dentry_cache is not None:
            self.dentry_cache.reset()

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
        self.install_fingerprint_owner(view.dir_owner_by_fp)
        self.flush_cache()

    def stats(self) -> SwitchStats:
        """Data-plane statistics."""
        s = self.stale_set
        c = self.dentry_cache
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
            multicasts=self.multicasts,
            **cache,
        )

    # -- data plane -----------------------------------------------------------
    def process(self, packet: Packet) -> List[Packet]:
        wire = packet.header
        if wire is None:
            return [packet]
        # Parser: run the real byte codec so header layout stays honest.
        header = StaleSetHeader.unpack(wire.pack())
        stale_set = self.stale_set
        dentry_cache = self.dentry_cache

        if header.op == StaleSetOp.QUERY:
            present = stale_set.query(header.fingerprint)
            return [packet.clone(header=header.with_ret(1 if present else 0))]

        if header.op == StaleSetOp.LOOKUP:
            if dentry_cache is not None:
                value = dentry_cache.lookup(header.fingerprint)
                if value is not None:
                    # Hit: fabricate the RPC reply at the switch and turn
                    # the packet around — the server is never touched.
                    # RET := 1 marks the reply as switch-served so the
                    # client can bucket its latency separately.
                    response = RpcResponse(rpc_id=packet.payload.rpc_id, value=value)
                    return [
                        packet.clone(
                            dst=packet.src, payload=response, header=header.with_ret(1)
                        )
                    ]
            # Miss (or cache not provisioned): the request proceeds to the
            # server, which sees the LOOKUP header and attaches a FILL.
            return [packet]

        if header.op == StaleSetOp.FILL:
            payload = packet.payload
            if (
                dentry_cache is not None
                and isinstance(payload, RpcResponse)
                and payload.error is None
            ):
                # Opportunistic fill on the return path; error replies are
                # never cached (a later retry may succeed).
                dentry_cache.fill(header.fingerprint, payload.value)
            return [packet]

        if header.op == StaleSetOp.EVICT:
            if dentry_cache is not None:
                dentry_cache.invalidate(header.fingerprint)
            # The switch is the EVICT's real destination: consume it.
            return []

        if header.op == StaleSetOp.INSERT:
            if dentry_cache is not None:
                # Stale-set-coupled eviction (DESIGN.md §15): a directory
                # going scattered drops its cached lookup line even before
                # any explicit EVICT arrives.
                dentry_cache.invalidate(header.fingerprint)
            ok = stale_set.insert(header.fingerprint)
            if ok:
                out = packet.clone(header=header.with_ret(1))
                self.multicasts += 1
                # Multicast: to the client (completion) and back to the
                # sending server (unlock notification).
                return [out, out.clone(dst=packet.src)]
            if self._fingerprint_owner is None:
                raise RuntimeError(
                    "stale-set overflow but no fingerprint->owner route installed"
                )
            fallback_dst = self._fingerprint_owner(header.fingerprint)
            return [packet.clone(dst=fallback_dst, header=header.with_ret(0))]

        if header.op == StaleSetOp.REMOVE:
            stale_set.remove(header.fingerprint, source=packet.src, seq=header.seq)
            return [packet]

        # NONE: the header was attached for transport symmetry; forward.
        return [packet]
