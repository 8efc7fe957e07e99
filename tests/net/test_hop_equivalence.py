"""Packet delivery against a reference plan / hop / arrive path (DESIGN.md §10).

The reference below is the per-packet path as it stood before plans became
one stages tuple: a ``_Plan`` of ``(offset, device)`` hops plus a total, an
``Event``-based ``_Hop`` built per packet, and an ``_arrive`` that hands the
packets to their inboxes.  The reference walks a chain of devices; the
stock :class:`Network` holds the rack's one switch, so the reference runs
over that one device.  Hypothesis builds send schedules over a
transparent, consuming, multicasting or address-rewriting device, zero
link and device latencies, unknown hosts and a :class:`FaultModel` that
loses, duplicates and reorders; the stock :class:`Network` and the
reference must deliver the same packets to the same hosts at the same
instants, in the same order, draw the same number of kernel ticks, and
count the same packets sent, delivered and dropped.
"""

import heapq
from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.net import (
    FaultModel,
    Network,
    PassthroughSwitch,
    StaleSetHeader,
    StaleSetOp,
    alloc_packet,
)
from repro.sim import Event, Simulator
from repro.sim.rand import make_rng


class _RefPlan:
    """``hops``: ``(offset_us, device)`` per non-transparent device;
    ``total_us``: the delivery offset."""

    def __init__(self, devices, link_latency_us):
        t = link_latency_us
        hops = []
        for device in devices:
            t += device.latency_us
            if not getattr(device, "is_transparent", False):
                hops.append((t, device))
            t += link_latency_us
        self.hops = hops
        self.total_us = t


class _RefHop(Event):
    """One kernel entry per remaining stage, re-pushed after each device."""

    def __init__(self, net, plan, packets, base):
        Event.__init__(self, net.sim)
        self.net = net
        self.plan = plan
        self.idx = 0
        self.packets = packets
        self.base = base
        hops = plan.hops
        when = base + (hops[0][0] if hops else plan.total_us)
        sim = self.sim
        heapq.heappush(sim._heap, (when, next(sim._counter), self))

    def _run_callbacks(self):
        self._processed = True
        plan, idx = self.plan, self.idx
        hops = plan.hops
        if idx == len(hops):
            self.net._arrive(self.packets)
            return
        device = hops[idx][1]
        out = []
        for p in self.packets:
            out.extend(device.process(p))
        if not out:
            return
        idx += 1
        self.idx = idx
        self.packets = out
        when = self.base + (hops[idx][0] if idx < len(hops) else plan.total_us)
        sim = self.sim
        heapq.heappush(sim._heap, (when, next(sim._counter), self))


class ReferenceNetwork:
    """The reference fabric: one plan for every packet, an unknown
    destination counted as a drop at arrival."""

    def __init__(self, sim, devices, link_latency_us=0.75, faults=None):
        self.sim = sim
        self._plan = _RefPlan(devices, link_latency_us)
        self.link_latency_us = link_latency_us
        self.faults = faults or FaultModel.reliable()
        self._inboxes = {}
        self.packets_sent = self.packets_delivered = self.packets_dropped = 0

    def attach(self, addr, inbox):
        self._inboxes[addr] = inbox
        return inbox

    def send(self, packet):
        self.packets_sent += 1
        decision = self.faults.decide()
        if decision.dropped:
            self.packets_dropped += 1
            return
        for extra in decision.extra_delays:
            copy = packet if decision.copies == 1 else packet.clone()
            _RefHop(self, self._plan, [copy], self.sim.now + extra)

    def _arrive(self, packets):
        for p in packets:
            box = self._inboxes.get(p.dst)
            if box is None:
                self.packets_dropped += 1
                continue
            self.packets_delivered += 1
            box.put(p)


# -- devices: every kind the rack's switch can be, each deterministic ------------


class _Forward:
    """Stateful identity: invoked on every packet (not transparent)."""

    def __init__(self, latency_us):
        self.latency_us = latency_us
        self.seen = 0

    def process(self, packet):
        self.seen += 1
        return [packet]


class _Sink(_Forward):
    """Consumes every third packet it sees."""

    def process(self, packet):
        self.seen += 1
        return [] if self.seen % 3 == 0 else [packet]


class _Mirror(_Forward):
    """Multicasts odd payloads back to their sender as well."""

    def process(self, packet):
        self.seen += 1
        if packet.payload % 2:
            return [packet, packet.clone(dst=packet.src)]
        return [packet]


class _Redirect(_Forward):
    """Rewrites every fourth packet's destination (to a host that may not
    exist: the delivery then drops it)."""

    def __init__(self, latency_us, to):
        super().__init__(latency_us)
        self.to = to

    def process(self, packet):
        self.seen += 1
        return [packet.clone(dst=self.to)] if self.seen % 4 == 0 else [packet]


def _device(spec):
    kind, latency = spec
    if kind == "pass":
        return PassthroughSwitch(latency)
    if kind == "fwd":
        return _Forward(latency)
    if kind == "sink":
        return _Sink(latency)
    if kind == "mirror":
        return _Mirror(latency)
    return _Redirect(latency, kind.split(":")[1])


HOSTS = ("h0", "h1", "h2", "h3")
GHOST = "ghost"      # attached nowhere

_latency = st.sampled_from([0.0, 0.0, 0.25, 1.0])
_kind = st.sampled_from(["pass", "fwd", "sink", "mirror", "redirect:h1", f"redirect:{GHOST}"])
_spec = st.tuples(_kind, _latency)
_fault = st.sampled_from([
    None,
    (0.0, 0.5, 0.0),
    (0.0, 0.0, 0.5),
    (0.2, 0.4, 0.4),
])
_send = st.tuples(
    st.sampled_from([0.0, 0.0, 0.5, 2.0]),             # gap before the send
    st.sampled_from(HOSTS),
    st.sampled_from(HOSTS + (GHOST,)),
    st.one_of(st.none(), st.integers(0, 7)),            # stale-set fingerprint
)


class _Recorder:
    """An inbox that logs what lands in it, and when."""

    def __init__(self, sim, log):
        self.sim = sim
        self.log = log

    def put(self, packet):
        self.log.append((self.sim.now, packet.dst, packet.payload))


def _run(net_cls, device, link, fault, seed, sends):
    sim = Simulator()
    faults = None
    if fault is not None:
        loss, dup, reorder = fault
        faults = FaultModel(
            make_rng(seed, "hop"), loss_prob=loss, dup_prob=dup,
            reorder_prob=reorder, reorder_jitter_us=3.0,
        )
    net = net_cls(sim, device, link_latency_us=link, faults=faults)
    log: List[Tuple[float, str, int]] = []
    for host in HOSTS:
        net.attach(host, _Recorder(sim, log))

    def sender(sim):
        for payload, (gap, src, dst, fp) in enumerate(sends):
            if gap:
                yield sim.timeout(gap)
            header = None if fp is None else StaleSetHeader(StaleSetOp.QUERY, fingerprint=fp)
            net.send(alloc_packet(src, dst, payload, header))

    sim.spawn(sender(sim))
    sim.run()
    counts = (net.packets_sent, net.packets_delivered, net.packets_dropped)
    return log, counts, sim.reserve_seq()


def _agree(spec, *case):
    stock = _run(Network, _device(spec), *case)
    reference = _run(ReferenceNetwork, [_device(spec)], *case)
    assert stock == reference


@settings(max_examples=200, deadline=None)
@given(
    device=_spec,
    link=_latency,
    fault=_fault,
    seed=st.integers(0, 3),
    sends=st.lists(_send, min_size=1, max_size=12),
)
def test_single_rack_delivery_matches_the_reference(device, link, fault, seed, sends):
    _agree(device, link, fault, seed, sends)


def test_a_schedule_that_exercises_every_device_kind():
    sends = [(0.0, "h0", "h1", None), (0.0, "h2", "h3", 5), (0.5, "h1", GHOST, None),
             (0.0, "h3", GHOST, 2), (2.0, "h0", "h2", 3)] * 3
    for device in [("pass", 0.0), ("mirror", 0.25), ("sink", 0.0), ("redirect:h1", 1.0)]:
        _agree(device, 0.0, (0.2, 0.4, 0.4), 1, sends)
        _agree(device, 0.75, None, 0, sends)
