"""Simulated network fabric and topologies (§5.4).

:class:`Network` connects named hosts through a chain of switch devices.
Every transmitted packet:

1. rolls the :class:`~repro.net.faults.FaultModel` dice (loss / dup /
   reorder);
2. traverses the path's links, paying ``link_latency_us`` per link;
3. is handed to each switch device on the path in order — a device may
   forward, rewrite, multicast, or consume the packet;
4. lands in the destination host's inbox (``put``).

Two topologies cover the paper's deployments:

* :func:`single_rack_path` — host → ToR switch → host (the programmable
  switch is the ToR, monitoring all rack traffic);
* :func:`leaf_spine_path` — host → leaf → spine → leaf → host, with the
  programmable stale set at the spine (Figure 10), partitioned over
  several spines by :func:`switch_of_fingerprint` when one is not enough.

Fast paths (DESIGN.md §10)
--------------------------
A path compiles into one ``stages`` tuple of absolute offsets: one
``(offset_us, device)`` per *non-transparent* device, ending in
``(total_us, None)`` for the delivery; every link latency and device
latency (transparent ones included) is folded in.  The chain every packet
shares on a single rack compiles once, when the network is built; a keyed
path (leaf-spine) caches its stages per ``plan_key``.  Each transmitted
copy is one plain kernel entry (:class:`_Hop`) re-pushed per stage: a
device stage hands the packet to ``device.process``, the delivery stage
puts the packets into their hosts' inboxes.  The arithmetic is that of a
per-link walk, so delivery timestamps, packet arrival order at the switch
and the FIFO tie-break contract of DESIGN.md §9 are unchanged.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from zlib import crc32
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from ..sim import Simulator, Store
from .faults import FaultModel
from .packet import Packet, STALESET_PORT

__all__ = [
    "SwitchDevice",
    "PassthroughSwitch",
    "Network",
    "PathFn",
    "single_rack_path",
    "leaf_spine_path",
    "switch_of_fingerprint",
]


class SwitchDevice(Protocol):  # reprolint: allow[RL006] structural type, never instantiated
    """Anything that can sit on a packet path.

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


#: A path function maps a packet to the ordered device chain it traverses.
#: It may carry ``chain``, the one chain every packet takes (compiled once),
#: or ``plan_key(packet)``, a routing key the compiled stages are cached
#: under — ``None`` for a packet no route reaches (an unknown host).
PathFn = Callable[[Packet], List[SwitchDevice]]


def single_rack_path(devices: Sequence[SwitchDevice]) -> PathFn:
    """All pairs of hosts communicate through the same ToR device chain."""
    chain = list(devices)

    def path(packet: Packet) -> List[SwitchDevice]:
        return chain

    path.chain = chain  # one chain for everyone
    return path


def switch_of_fingerprint(fingerprint: int, num_switches: int) -> int:
    """Which of a deployment's programmable switches holds *fingerprint*.

    The one answer to that question: the path function routes a stale-set
    packet by it and the control plane reads, clears and counts state by
    it, so the two can never disagree about where a bit lives.
    """
    return fingerprint % num_switches


def leaf_spine_path(
    rack_of: Dict[str, int],
    leaves: Dict[int, SwitchDevice],
    spines: Sequence[SwitchDevice],
) -> PathFn:
    """Leaf-spine routing with the programmable stale set at the spines.

    ToR switches no longer see all traffic in a multi-rack deployment
    (Figure 10), so the stale set moves to the spine.  SwitchFS routes
    every packet that carries (or may trigger) a stale-set operation
    through the spine; we model that by climbing to the spine for all
    traffic — intra-rack round trips just pay the two extra links the
    detour costs, which is exactly the trade the paper describes.

    With several spines (§5.4 scaling) directories are partitioned over
    them by fingerprint: a packet carrying a stale-set operation climbs to
    the spine :func:`switch_of_fingerprint` names, so each spine holds a
    disjoint slice of the stale set.  Packets without stale-set headers
    balance over the spines by flow hash.
    """
    spines = list(spines)
    if not spines:
        raise ValueError("need at least one spine switch")
    k = len(spines)
    # A stable hash of the address pair (``hash()`` of a string moves with
    # PYTHONHASHSEED), computed once per pair.
    flow_spine: Dict[Tuple[str, str], int] = {}

    def spine_index(packet: Packet) -> int:
        if packet.port == STALESET_PORT and packet.header is not None:
            return switch_of_fingerprint(packet.header.fingerprint, k)
        flow = (packet.src, packet.dst)
        idx = flow_spine.get(flow)
        if idx is None:
            idx = flow_spine[flow] = crc32(f"{flow[0]}>{flow[1]}".encode()) % k
        return idx

    def path(packet: Packet) -> List[SwitchDevice]:
        idx = spine_index(packet)
        return [leaves[rack_of[packet.src]], spines[idx], leaves[rack_of[packet.dst]]]

    def plan_key(packet: Packet) -> Optional[Tuple[int, int, int]]:
        # The key must include the chosen spine: two stale-set packets
        # between the same pair of hosts can take different spines
        # depending on their fingerprint.
        try:
            src_rack, dst_rack = rack_of[packet.src], rack_of[packet.dst]
        except KeyError:
            return None  # a host in no rack: no route
        return src_rack, dst_rack, spine_index(packet)

    path.plan_key = plan_key
    return path


#: A compiled path: ``(offset_us, device)`` per non-transparent device,
#: then ``(total_us, None)``; offsets are relative to transmission.
Stages = Tuple[Tuple[float, Optional[SwitchDevice]], ...]


def _plan(devices: Sequence[SwitchDevice], link_latency_us: float) -> Stages:
    """Compile *devices* into stages: device *i* processes at
    ``(i+1)·link + Σ_{j≤i} lat_j`` and delivery lands at
    ``(n+1)·link + Σ lat_j``, exactly the timing of a per-link walk."""
    t = link_latency_us
    stages = []
    for device in devices:
        t += device.latency_us
        if not getattr(device, "is_transparent", False):
            stages.append((t, device))
        t += link_latency_us
    stages.append((t, None))
    return tuple(stages)


class _Hop:
    """One transmitted copy in flight: a plain kernel entry (DESIGN.md §9),
    re-pushed for each stage of its plan, so a delivery allocates one
    object no matter how many devices it crosses.

    :meth:`Network.send` builds it (no ``__init__``).  ``packets`` is the
    one packet sent until a device returns a list; the delivery stage puts
    every packet into its host's inbox and never dispatches it: the inbox
    takes its own entry (DESIGN.md §10).
    """

    __slots__ = ("net", "stages", "idx", "packets", "base")

    def _run_callbacks(self) -> None:
        stages = self.stages
        idx = self.idx
        device = stages[idx][1]
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
        if packets.__class__ is list:  # several in flight (an upstream multicast)
            out: List[Packet] = []
            for p in packets:
                out.extend(device.process(p))
        else:
            out = device.process(packets)
        if not out:
            return  # consumed (e.g. dropped by policy)
        idx += 1
        self.idx = idx
        self.packets = out
        sim = net.sim
        # Inlined Simulator.schedule_at, as in Network.send.
        _heappush(sim._heap, (self.base + stages[idx][0], next(sim._counter), self))  # reprolint: allow[private-access] documented scheduler fast path


#: The fault-free fate of a transmission: one copy, on time.
_ON_TIME = (0.0,)


class Network:  # reprolint: allow[RL006] one per cluster, built at boot
    """The fabric: registers hosts, owns the path function, moves packets."""

    def __init__(
        self,
        sim: Simulator,
        path_fn: "PathFn",
        link_latency_us: float = 0.75,
        faults: Optional[FaultModel] = None,
    ):
        if link_latency_us < 0:
            raise ValueError(f"link latency must be >= 0, got {link_latency_us}")
        self.sim = sim
        self._path_fn = path_fn
        self._plan_key_fn = getattr(path_fn, "plan_key", None)
        self._plans: Dict[object, Stages] = {}
        chain = getattr(path_fn, "chain", None)
        # The stages every packet takes, or None when routed per packet.
        self._stages = None if chain is None else _plan(chain, link_latency_us)
        self.link_latency_us = link_latency_us
        self.faults = faults or FaultModel.reliable()
        self._inboxes: Dict[str, object] = {}
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

    # -- host management ---------------------------------------------------
    def attach(self, addr: str, inbox=None):
        """Register a host and return its inbox: *inbox*, anything with
        ``put(packet)`` (an RPC endpoint brings its own), or by default a
        :class:`~repro.sim.Store` for a raw host to ``get`` from."""
        if addr in self._inboxes:
            raise ValueError(f"host address already attached: {addr}")
        if inbox is None:
            inbox = Store(self.sim)
        self._inboxes[addr] = inbox
        return inbox

    @property
    def hosts(self) -> Iterable[str]:
        return self._inboxes.keys()

    # -- transmission --------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit *packet* asynchronously (fire and forget, UDP-style).

        A packet to a host no route reaches is dropped; anything a path
        function or a device raises propagates (DESIGN.md §10).
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
        if stages is None:
            stages = self._route(packet)
            if stages is None:
                self.packets_dropped += 1
                return
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

    def _route(self, packet: Packet) -> Optional[Stages]:
        key_fn = self._plan_key_fn
        if key_fn is None:
            # Custom path function (tests): no cache contract, recompile.
            return _plan(self._path_fn(packet), self.link_latency_us)
        key = key_fn(packet)
        if key is None:
            return None
        stages = self._plans.get(key)
        if stages is None:
            stages = self._plans[key] = _plan(self._path_fn(packet), self.link_latency_us)
        return stages
