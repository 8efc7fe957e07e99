"""Simulated network fabric: one rack behind one ToR switch.

:class:`Network` connects named hosts through the rack's one switch
device.  Every transmitted packet:

1. rolls the :class:`~repro.net.faults.FaultModel` dice (loss / dup /
   reorder);
2. crosses the link to the switch, the switch, and the link to its
   destination, paying ``link_latency_us`` per link;
3. is handed to the switch device — it may forward, rewrite, multicast,
   or consume the packet;
4. lands in the destination host's inbox (``put``).

This is the paper's testbed: every pair of hosts talks through the same
ToR, and the programmable switch is that ToR, seeing all rack traffic.
The multi-rack deployment of §5.4 is not modelled (DESIGN.md §2).

Fast paths (DESIGN.md §10)
--------------------------
The path compiles once, when the network is built, into one ``stages``
tuple of absolute offsets: ``(offset_us, device)`` unless the device is
transparent, then ``(total_us, None)`` for the delivery; both link
latencies and the device latency are folded in.  Each transmitted copy
is one plain kernel entry (:class:`_Hop`) re-pushed per stage: the
device stage hands the packet to ``device.process``, the delivery stage
puts the packets into their hosts' inboxes.  The arithmetic is that of a
per-link walk, so delivery timestamps, packet arrival order at the
switch and the FIFO tie-break contract of DESIGN.md §9 are unchanged.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Dict, List, Optional, Protocol, Tuple

from ..sim import Simulator
from .faults import FaultModel
from .packet import Packet

__all__ = [
    "SwitchDevice",
    "PassthroughSwitch",
    "Network",
]


class SwitchDevice(Protocol):  # reprolint: allow[RL006] structural type, never instantiated
    """Anything that can be the rack's switch.

    ``process`` returns the packets leaving the device: usually the input
    unchanged, possibly rewritten (address rewriter), replicated
    (multicast), or an empty list (consumed).  ``latency_us`` is the
    device's forwarding delay.

    Devices whose ``process`` is the identity may set ``is_transparent``
    to True; the network then pays their latency without invoking them.
    Unknown devices default to stateful (always invoked).
    """

    latency_us: float

    def process(self, packet: Packet) -> List[Packet]:
        ...


class PassthroughSwitch:  # reprolint: allow[RL006] one per network, built at boot
    """A plain, non-programmable switch: forwards everything untouched."""

    is_transparent = True

    def __init__(self, latency_us: float = 0.0):
        self.latency_us = latency_us

    def process(self, packet: Packet) -> List[Packet]:
        return [packet]


#: A compiled path: ``(offset_us, device)`` unless the device is
#: transparent, then ``(total_us, None)``; offsets are relative to
#: transmission.
Stages = Tuple[Tuple[float, Optional[SwitchDevice]], ...]


def _plan(device: SwitchDevice, link_latency_us: float) -> Stages:
    """Compile *device* into stages: it processes at ``link + lat`` and
    delivery lands at ``link + lat + link``, exactly the timing of a
    per-link walk."""
    at_device = link_latency_us + device.latency_us
    delivery = (at_device + link_latency_us, None)
    if getattr(device, "is_transparent", False):
        return (delivery,)
    return ((at_device, device), delivery)


class _Hop:
    """One transmitted copy in flight: a plain kernel entry (DESIGN.md §9),
    re-pushed for each stage of its plan, so a delivery allocates one
    object whether or not the switch processes it.

    :meth:`Network.send` builds it (no ``__init__``).  ``packets`` is the
    one packet sent until the device returns a list; the delivery stage
    puts every packet into its host's inbox and never dispatches it: the
    inbox takes its own entry (DESIGN.md §10).
    """

    __slots__ = ("net", "stages", "idx", "packets", "base")

    def _run_callbacks(self) -> None:
        stages = self.stages
        device = stages[self.idx][1]
        packets = self.packets
        net = self.net
        if device is None:
            inboxes = net._inboxes
            for p in packets if packets.__class__ is list else (packets,):
                dst = p.dst
                if dst in inboxes:
                    net.packets_delivered += 1
                    inboxes[dst].put(p)
                else:
                    # Unknown destination (e.g. crashed and detached):
                    # UDP silently drops.
                    net.packets_dropped += 1
            return
        out = device.process(packets)
        if not out:
            return  # consumed (e.g. dropped by policy)
        # The device is stage 0: what it returns goes on to the delivery.
        self.idx = 1
        self.packets = out
        sim = net.sim
        # Inlined Simulator.schedule_at, as in Network.send.
        _heappush(sim._heap, (self.base + stages[1][0], next(sim._counter), self))  # reprolint: allow[private-access] documented scheduler fast path


#: The fault-free fate of a transmission: one copy, on time.
_ON_TIME = (0.0,)


class Network:  # reprolint: allow[RL006] one per cluster, built at boot
    """The fabric: registers hosts, owns the rack's switch, moves packets."""

    def __init__(
        self,
        sim: Simulator,
        device: SwitchDevice,
        link_latency_us: float = 0.75,
        faults: Optional[FaultModel] = None,
    ):
        if link_latency_us < 0:
            raise ValueError(f"link latency must be >= 0, got {link_latency_us}")
        self.sim = sim
        # The stages every packet takes, compiled once.
        self._stages = _plan(device, link_latency_us)
        self.link_latency_us = link_latency_us
        self.faults = faults or FaultModel.reliable()
        self._inboxes: Dict[str, object] = {}
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

    # -- host management ---------------------------------------------------
    def attach(self, addr: str, inbox):
        """Register a host and return its *inbox*: anything with
        ``put(packet)``, as an RPC endpoint's ``_Inbox``."""
        if addr in self._inboxes:
            raise ValueError(f"host address already attached: {addr}")
        self._inboxes[addr] = inbox
        return inbox

    # -- transmission --------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit *packet* asynchronously (fire and forget, UDP-style).

        A packet to an unattached host is dropped at delivery; anything a
        device raises propagates (DESIGN.md §10).
        """
        self.packets_sent += 1
        faults = self.faults
        delays = _ON_TIME
        clone = False
        if faults.active:
            decision = faults.decide()
            if decision.dropped:
                self.packets_dropped += 1
                return
            delays = decision.extra_delays
            clone = decision.copies != 1  # duplicated: every copy is a clone
        stages = self._stages
        sim = self.sim
        now = sim.now
        for extra in delays:
            hop = _Hop()
            hop.net = self
            hop.stages = stages
            hop.idx = 0
            hop.packets = packet.clone() if clone else packet
            hop.base = base = now + extra
            # Inlined Simulator.schedule_at: this push runs once per packet,
            # the hottest schedule site in the datapath.
            _heappush(sim._heap, (base + stages[0][0], next(sim._counter), hop))  # reprolint: allow[private-access] documented scheduler fast path
