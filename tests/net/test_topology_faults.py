"""Unit tests for the network fabric and fault injection."""

import pytest

from repro.net import (
    FaultModel,
    Network,
    PassthroughSwitch,
    alloc_packet,
)
from repro.sim import Simulator, make_rng


def make_net(sim, **kwargs):
    return Network(sim, PassthroughSwitch(), **kwargs)


class Inbox:
    """A raw host's inbox: notes each packet with the time it lands."""

    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def put(self, packet):
        self.got.append((packet, self.sim.now))


class TestFaultModel:
    def test_reliable_never_drops(self):
        fm = FaultModel.reliable()
        for _ in range(100):
            d = fm.decide()
            assert d.copies == 1 and d.extra_delays == (0.0,)

    def test_loss_rate_roughly_respected(self):
        fm = FaultModel(make_rng(1, "f"), loss_prob=0.3)
        drops = sum(1 for _ in range(10_000) if fm.decide().dropped)
        assert 2700 < drops < 3300

    def test_duplication(self):
        fm = FaultModel(make_rng(1, "f"), dup_prob=1.0)
        d = fm.decide()
        assert d.copies == 2 and len(d.extra_delays) == 2

    def test_reorder_jitter_bounds(self):
        fm = FaultModel(make_rng(1, "f"), reorder_prob=1.0, reorder_jitter_us=5.0)
        for _ in range(100):
            d = fm.decide()
            assert all(0.0 <= x <= 5.0 for x in d.extra_delays)

    def test_invalid_probs_rejected(self):
        with pytest.raises(ValueError):
            FaultModel(make_rng(0, "f"), loss_prob=1.5)
        with pytest.raises(ValueError):
            FaultModel(make_rng(0, "f"), reorder_jitter_us=-1)


class TestNetwork:
    def test_delivery_latency_two_links(self):
        sim = Simulator()
        net = make_net(sim, link_latency_us=0.75)
        inbox = net.attach("b", Inbox(sim))
        net.attach("a", Inbox(sim))
        net.send(alloc_packet("a", "b", "hi"))
        sim.run()
        # host->switch + switch->host = 2 links = 1.5us.
        assert [(pkt.payload, t) for pkt, t in inbox.got] == [("hi", 1.5)]

    def test_double_attach_rejected(self):
        sim = Simulator()
        net = make_net(sim)
        net.attach("a", Inbox(sim))
        with pytest.raises(ValueError):
            net.attach("a", Inbox(sim))

    def test_unknown_destination_dropped(self):
        sim = Simulator()
        net = make_net(sim)
        net.attach("a", Inbox(sim))
        net.send(alloc_packet("a", "ghost", "x"))
        sim.run()
        assert net.packets_dropped == 1
        assert net.packets_delivered == 0

    def test_a_raising_device_fails_the_run(self):
        """A device bug (a switch with no owner route, say) is not a lost
        packet: it surfaces from the run instead of as a far-off timeout."""

        class Broken:
            latency_us = 0.0

            def process(self, packet):
                raise RuntimeError("no route installed")

        sim = Simulator()
        net = Network(sim, Broken())
        net.attach("a", Inbox(sim))
        net.attach("b", Inbox(sim))
        net.send(alloc_packet("a", "b", "x"))
        with pytest.raises(RuntimeError, match="no route installed"):
            sim.run()
        assert net.packets_dropped == 0

    def test_lossy_network_counts_drops(self):
        sim = Simulator()
        net = Network(
            sim,
            PassthroughSwitch(),
            faults=FaultModel(make_rng(3, "loss"), loss_prob=1.0),
        )
        net.attach("a", Inbox(sim))
        net.attach("b", Inbox(sim))
        net.send(alloc_packet("a", "b", "x"))
        sim.run()
        assert net.packets_dropped == 1

    def test_duplicate_delivers_two_copies(self):
        sim = Simulator()
        net = Network(
            sim,
            PassthroughSwitch(),
            faults=FaultModel(make_rng(3, "dup"), dup_prob=1.0),
        )
        net.attach("a", Inbox(sim))
        inbox = net.attach("b", Inbox(sim))
        net.send(alloc_packet("a", "b", "x"))
        sim.run()
        got = [pkt for pkt, _ in inbox.got]
        assert len(got) == 2
        assert got[0] is not got[1]  # a duplicate is a clone, not the same packet

    def test_the_switch_sits_between_two_links(self):
        sim = Simulator()
        net = Network(sim, PassthroughSwitch(latency_us=0.5), link_latency_us=1.0)
        net.attach("a", Inbox(sim))
        inbox = net.attach("b", Inbox(sim))
        net.send(alloc_packet("a", "b", "x"))
        sim.run()
        # 2 links and the switch's forwarding delay.
        assert [t for _, t in inbox.got] == [2.5]

    def test_consuming_switch_ends_delivery(self):
        class BlackHole:
            latency_us = 0.0

            def process(self, packet):
                return []

        sim = Simulator()
        net = Network(sim, BlackHole())
        net.attach("a", Inbox(sim))
        net.attach("b", Inbox(sim))
        net.send(alloc_packet("a", "b", "x"))
        sim.run()
        assert net.packets_delivered == 0
