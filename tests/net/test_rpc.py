"""Unit tests for the RPC layer: calls, retries, at-most-once, notify."""

import pytest

from repro.net import (
    FaultDecision,
    FaultModel,
    Network,
    PassthroughSwitch,
    Reply,
    RpcError,
    RpcNode,
    RpcTimeout,
)
from repro.sim import Simulator, make_rng


def setup_pair(loss_prob=0.0, seed=1):
    sim = Simulator()
    faults = (
        FaultModel(make_rng(seed, "loss"), loss_prob=loss_prob)
        if loss_prob
        else FaultModel.reliable()
    )
    net = Network(sim, PassthroughSwitch(), faults=faults)
    client = RpcNode(sim, net, "client")
    server = RpcNode(sim, net, "server")
    return sim, net, client, server


def pending(sim):
    """The scheduler's pending entries, timed and ready alike."""
    return [*sim._heap, *sim._ready]


def run_call(sim, client, *args, **kwargs):
    proc = sim.spawn(client.call(*args, **kwargs), name="call")
    return sim.run_process(proc)


def _cached(server):
    """Entries (replies and in-progress markers) a node holds, all sources."""
    return sum(len(replies) for replies in server._replies.values())


class TestBasicRpc:
    def test_echo(self):
        sim, net, client, server = setup_pair()

        def echo(request, packet):
            yield sim.timeout(1.0)
            return request.args

        server.register("echo", echo)
        value, pkt = run_call(sim, client, "server", "echo", {"x": 1})
        assert value == {"x": 1}
        assert pkt.src == "server"

    def test_handler_error_propagates(self):
        sim, net, client, server = setup_pair()

        def boom(request, packet):
            yield sim.timeout(0.1)
            raise RpcError("denied")

        server.register("boom", boom)
        proc = sim.spawn(client.call("server", "boom", None), name="call")
        with pytest.raises(RpcError, match="denied"):
            sim.run_process(proc)

    def test_unknown_method_is_error(self):
        sim, net, client, server = setup_pair()
        proc = sim.spawn(client.call("server", "nope", None), name="call")
        with pytest.raises(RpcError, match="no handler"):
            sim.run_process(proc)

    def test_reply_object_controls_value(self):
        sim, net, client, server = setup_pair()

        def handler(request, packet):
            yield sim.timeout(0.1)
            return Reply(value="custom")

        server.register("h", handler)
        value, _ = run_call(sim, client, "server", "h", None)
        assert value == "custom"


class TestRetransmission:
    def test_retry_succeeds_under_loss(self):
        # 40% loss: with 10 attempts the call should eventually land.
        sim, net, client, server = setup_pair(loss_prob=0.4, seed=7)
        calls = []

        def handler(request, packet):
            calls.append(request.rpc_id)
            yield sim.timeout(0.5)
            return "ok"

        server.register("h", handler)
        value, _ = run_call(
            sim, client, "server", "h", None, timeout_us=20.0, max_attempts=10
        )
        assert value == "ok"
        assert client.retransmits >= 1

    def test_at_most_once_execution(self):
        """Duplicated requests must not re-execute the handler."""
        sim, net, client, server = setup_pair()
        executions = []

        def handler(request, packet):
            executions.append(1)
            yield sim.timeout(50.0)  # slower than the client's timeout
            return "done"

        server.register("h", handler)
        value, _ = run_call(
            sim, client, "server", "h", None, timeout_us=10.0, max_attempts=8
        )
        assert value == "done"
        assert len(executions) == 1  # retries hit the reply cache / in-progress marker

    def test_duplicate_after_completion_resends_cached_reply(self):
        sim, net, client, server = setup_pair()
        executions = []

        def handler(request, packet):
            executions.append(1)
            yield sim.timeout(1.0)
            return "v"

        server.register("h", handler)
        run_call(sim, client, "server", "h", None)
        # Manually re-deliver a duplicate of the same request id.
        from repro.net import RpcRequest, alloc_packet

        # The one call the server holds a reply for is the one just made.
        (rpc_id,) = server._replies["client"]
        dup = RpcRequest(rpc_id=rpc_id, method="h", args=None, src="client")
        resent = []
        client.tap = lambda p: resent.append(p.payload.value) or True
        net.send(alloc_packet("client", "server", dup))
        sim.run()
        assert len(executions) == 1
        assert resent == ["v"]

    def test_timeout_after_all_attempts(self):
        sim, net, client, server = setup_pair(loss_prob=1.0)

        def handler(request, packet):
            yield sim.timeout(0.1)
            return "never"

        server.register("h", handler)
        proc = sim.spawn(
            client.call("server", "h", None, timeout_us=5.0, max_attempts=3), name="c"
        )
        with pytest.raises(RpcTimeout):
            sim.run_process(proc)


class TestNotify:
    def test_notify_executes_without_reply(self):
        sim, net, client, server = setup_pair()
        seen = []

        def handler(request, packet):
            yield sim.timeout(0.1)
            seen.append(request.args)

        server.register("note", handler)
        client.notify("server", "note", "payload")
        sim.run()
        assert seen == ["payload"]
        # No response packet should have been sent back.
        assert len(client._pending) == 0


class TestMulticast:
    def test_multicast_gathers_all(self):
        sim = Simulator()
        net = Network(sim, PassthroughSwitch())
        client = RpcNode(sim, net, "client")
        servers = [RpcNode(sim, net, f"s{i}") for i in range(3)]

        def make_handler(i):
            def handler(request, packet):
                yield sim.timeout(float(i))
                return f"from-s{i}"

            return handler

        for i, s in enumerate(servers):
            s.register("m", make_handler(i))
        proc = sim.spawn(
            client.multicast_call([f"s{i}" for i in range(3)], "m", None), name="mc"
        )
        values = sim.run_process(proc)
        assert values == ["from-s0", "from-s1", "from-s2"]


class TestCrash:
    def test_dead_node_ignores_traffic(self):
        sim, net, client, server = setup_pair()

        def handler(request, packet):
            yield sim.timeout(0.1)
            return "alive"

        server.register("h", handler)
        server.kill()
        proc = sim.spawn(
            client.call("server", "h", None, timeout_us=5.0, max_attempts=2), name="c"
        )
        with pytest.raises(RpcTimeout):
            sim.run_process(proc)

    def test_revived_node_serves_again(self):
        sim, net, client, server = setup_pair()

        def handler(request, packet):
            yield sim.timeout(0.1)
            return "alive"

        server.register("h", handler)
        server.kill()
        server.revive()
        value, _ = run_call(sim, client, "server", "h", None)
        assert value == "alive"


class TestFaultModelRpc:
    """RPC-layer behaviour under the lossy/duplicating fault model."""

    def test_multicast_completes_under_loss(self):
        sim = Simulator()
        faults = FaultModel(make_rng(3, "loss"), loss_prob=0.3)
        net = Network(sim, PassthroughSwitch(), faults=faults)
        client = RpcNode(sim, net, "client")
        servers = [RpcNode(sim, net, f"s{i}") for i in range(4)]
        executions = []

        def make_handler(i):
            def handler(request, packet):
                executions.append((i, request.rpc_id))
                yield sim.timeout(0.5)
                return f"v{i}"

            return handler

        for i, s in enumerate(servers):
            s.register("m", make_handler(i))
        proc = sim.spawn(
            client.multicast_call(
                [f"s{i}" for i in range(4)], "m", None, timeout_us=20.0, max_attempts=10
            ),
            name="mc",
        )
        values = sim.run_process(proc)
        assert values == ["v0", "v1", "v2", "v3"]
        # At-most-once held per destination despite retransmission.
        assert len(executions) == len(set(executions)) == 4

    def test_at_most_once_under_duplication(self):
        sim = Simulator()
        faults = FaultModel(make_rng(5, "dup"), dup_prob=0.5)
        net = Network(sim, PassthroughSwitch(), faults=faults)
        client = RpcNode(sim, net, "client")
        server = RpcNode(sim, net, "server")
        executions = []

        def handler(request, packet):
            executions.append(request.rpc_id)
            yield sim.timeout(0.5)
            return "ok"

        server.register("h", handler)
        for _ in range(20):
            value, _ = run_call(sim, client, "server", "h", None)
            assert value == "ok"
        # Every duplicated request hit the reply cache, never the handler.
        assert len(executions) == 20

    def test_reply_cache_holds_calls_in_flight_not_history(self):
        sim, net, client, server = setup_pair()
        gate = sim.event()

        def handler(request, packet):
            yield sim.timeout(0.1)
            if request.args == "slow":
                yield gate
            return "r"

        server.register("h", handler)
        for _ in range(50):
            run_call(sim, client, "server", "h", None)
        # Each request acknowledged everything before it: one reply is left,
        # the one nothing has acknowledged yet.
        assert _cached(server) == 1
        # With a call outstanding the watermark stands still, so the replies
        # of the calls made meanwhile stay: it is load in flight that is held.
        slow = sim.spawn(client.call("server", "h", "slow"), name="slow")
        for _ in range(5):
            run_call(sim, client, "server", "h", None)
        assert _cached(server) == 1 + 5  # its marker and the five behind it
        gate.succeed()
        sim.run_process(slow)
        run_call(sim, client, "server", "h", None)
        assert _cached(server) == 1

    def test_header_rides_every_retransmission(self):
        """The call's header goes out with every transmission, unchanged."""
        from repro.net import StaleSetHeader, StaleSetOp

        sim, net, client, server = setup_pair()
        sent_seqs = []
        orig_send = net.send

        def spy(p):
            if p.header is not None:
                sent_seqs.append(p.header.seq)
            orig_send(p)

        net.send = spy

        def handler(request, packet):
            yield sim.timeout(50.0)  # slower than the first client timeout
            return "done"

        server.register("h", handler)
        value, _ = run_call(
            sim,
            client,
            "server",
            "h",
            None,
            header=StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=1, seq=7),
            timeout_us=10.0,
            max_attempts=8,
        )
        assert value == "done"
        assert len(sent_seqs) >= 2  # at least one retransmission happened
        assert set(sent_seqs) == {7}

    def test_duplicated_remove_filtered_by_switch_end_to_end(self):
        """A duplicated REMOVE (same SEQ) must not clear a newer insert."""
        from repro.net import StaleSetHeader, StaleSetOp, alloc_packet
        from repro.switchfab import ProgrammableSwitch, TableGeometry

        sim = Simulator()
        # dup_prob=1: the fabric duplicates every packet, simulating the
        # worst-case retransmission storm of §4.4.1.
        faults = FaultModel(make_rng(9, "dup"), dup_prob=1.0)
        sw = ProgrammableSwitch(
            stale_config=TableGeometry(num_stages=2, index_bits=3),
            fingerprint_owner=lambda fp: "server",
        )
        net = Network(sim, sw, faults=faults)
        RpcNode(sim, net, "client")
        RpcNode(sim, net, "server")
        fp = 0x1_0000_0001

        def staleset(op, seq=0):
            return alloc_packet(
                "server", "client", None, StaleSetHeader(op=op, fingerprint=fp, seq=seq)
            )

        net.send(staleset(StaleSetOp.INSERT))
        sim.run()
        net.send(staleset(StaleSetOp.REMOVE, seq=7))  # delivered twice
        sim.run()
        # Re-insert after the remove: the duplicate REMOVE (same seq=7)
        # arriving afterwards must be discarded, not clear this entry.
        net.send(staleset(StaleSetOp.INSERT))
        sim.run()
        probe = sw.process(
            alloc_packet(
                "client", "server", None, StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=fp)
            )
        )
        assert probe[0].header.ret == 1


class _LateDuplicate(FaultModel):
    """Duplicates the first packet sent and delivers the copy *delay* late."""

    def __init__(self, delay):
        super().__init__(make_rng(0, "late"), dup_prob=1.0)
        self._fates = [FaultDecision(copies=2, extra_delays=(0.0, delay))]

    def decide(self):
        return self._fates.pop() if self._fates else FaultDecision(1, (0.0,))


class TestAcknowledgedReplies:
    """At-most-once by watermark: what a server keeps, and for how long."""

    def _counting_server(self, sim, server, gate=None):
        runs = []

        def bump(request, packet):  # not idempotent
            runs.append(request.rpc_id)
            yield sim.timeout(0.1)
            if gate is not None and request.args == "park":
                yield gate
            return len(runs)

        server.register("bump", bump)
        return runs

    def test_late_duplicate_of_a_finished_call_does_not_run_again(self):
        """The parent kept the last 2 x 4096 replies per node, so a copy
        the fabric held back past that many later calls ran the handler a
        second time; below the caller's watermark it is refused."""
        sim = Simulator()
        net = Network(sim, PassthroughSwitch(), faults=_LateDuplicate(1e6))
        client, server = RpcNode(sim, net, "client"), RpcNode(sim, net, "server")
        runs = self._counting_server(sim, server)
        later = 2 * 4096 + 1
        for expected in range(1, later + 2):
            value, _ = run_call(sim, client, "server", "bump", None)
            assert value == expected
        assert sim.now < 1e6  # the copy of the first request is still out
        sim.run()
        assert sim.now >= 1e6 and len(runs) == later + 1
        assert _cached(server) == 1

    def test_marker_outlives_the_watermark_and_an_abandoned_call_leaves_nothing(self):
        sim, net, client, server = setup_pair()
        gate = sim.event()
        runs = self._counting_server(sim, server, gate)
        parked = sim.spawn(
            client.call("server", "bump", "park", timeout_us=5.0, max_attempts=2), name="p"
        )
        with pytest.raises(RpcTimeout):
            sim.run_process(parked)
        (abandoned,) = runs
        replies = server._replies["client"]
        assert replies[abandoned] is None  # still running
        # Later calls carry a watermark above the abandoned id ...
        for _ in range(3):
            run_call(sim, client, "server", "bump", None)
        assert replies.acked > abandoned
        # ... which forgets finished calls, never a running one: a copy of
        # the parked request meets its marker or the watermark, not the handler.
        assert replies[abandoned] is None and len(replies) == 2
        from repro.net import RpcRequest, alloc_packet

        net.send(alloc_packet("client", "server", RpcRequest(abandoned, "bump", "park", "client")))
        sim.run()
        assert runs.count(abandoned) == 1
        # When the handler finally returns, nobody can ask for its reply.
        gate.succeed()
        sim.run()
        assert abandoned not in replies and len(replies) == 1

    def test_restart_forgets_watermarks_with_the_replies(self):
        sim, net, client, server = setup_pair()
        runs = self._counting_server(sim, server)
        for _ in range(3):
            run_call(sim, client, "server", "bump", None)
        first = runs[0]
        assert server._replies["client"].acked > first
        from repro.net import RpcRequest, alloc_packet

        copy = RpcRequest(first, "bump", None, "client")
        net.send(alloc_packet("client", "server", copy))
        sim.run()
        assert runs.count(first) == 1  # refused: below the watermark
        server.clear_reply_cache()
        assert server._replies == {}
        # A restarted server knows nothing of what it served before (§4.4.2
        # recovery replays the WAL instead), so the same copy now runs.
        net.send(alloc_packet("client", "server", copy))
        sim.run()
        assert runs.count(first) == 2


class TestRawTap:
    def test_tap_consumes_packet(self):
        sim, net, client, server = setup_pair()
        tapped = []

        def tap(packet):
            if packet.payload == "raw":
                tapped.append(packet)
                return True
            return False

        server.tap = tap
        from repro.net import alloc_packet

        net.send(alloc_packet("client", "server", "raw"))
        sim.run()
        assert len(tapped) == 1


class TestOneDeadlinePerNode:
    """The retransmit deadline queue: one live heap entry per node, and a
    deadline that does fire lands exactly where a per-attempt timer did."""

    T = 10.0    # timeout_us
    RTT = 3.0   # two 0.75 us links each way through a zero-latency switch

    def test_answered_calls_leave_one_heap_entry(self):
        sim, net, client, server = setup_pair()

        def handler(request, packet):
            yield sim.timeout(1.0)
            return request.args

        server.register("h", handler)
        calls = [
            sim.spawn(client.call("server", "h", i, timeout_us=400.0)) for i in range(64)
        ]
        sim.run(until=50.0)
        assert [c.value[0] for c in calls] == list(range(64))   # all answered in flight
        # A timer per attempt left 64 dead entries here.
        assert len(pending(sim)) <= 1
        sim.run()
        assert client.retransmits == 0

    def test_dropped_replies_retransmit_at_exact_backoff_times(self):
        sim, net, client, server = setup_pair()
        arrivals, dropped = [], []

        def handler(request, packet):
            arrivals.append(sim.now)
            return "ok"
            yield

        def drop_two_replies(packet):
            if len(dropped) < 2:
                dropped.append(sim.now)
                return True
            return False

        server.register("h", handler)
        client.tap = drop_two_replies
        value, _ = run_call(sim, client, "server", "h", None, timeout_us=self.T)
        assert value == "ok"
        one_way = self.RTT / 2
        # t0 = 0: retransmits leave at t0 + T and then 2T later (backoff).
        # At-most-once: the handler ran once, for the first attempt; the
        # retries were answered from the reply cache, and the third reply
        # got through.
        assert arrivals == [one_way]
        assert dropped == [self.RTT, self.T + self.RTT]
        assert sim.now == self.T + 2 * self.T + self.RTT
        assert client.retransmits == 2

    def test_reply_handled_between_deadline_and_resume_is_taken(self):
        """The ``_TIMED_OUT`` race window.  A reply that was already in
        flight before the attempt was sent (reorder jitter) can reach the
        inbox at the deadline's own timestamp, ahead of it in tick order:
        the deadline fires, the inbox entry pops and finds the attempt's
        event triggered, stashes the reply, and the resuming caller takes
        it instead of retransmitting."""
        from repro.net import RpcResponse, alloc_packet

        sim, net, client, server = setup_pair()
        rpc_ids = []

        def handler(request, packet):
            rpc_ids.append(request.rpc_id)
            yield sim.timeout(1000.0)   # the real reply comes far too late

        def deliver_jittered_reply(_ev):
            reply = RpcResponse(rpc_id=rpc_ids[0], value="jittered")
            client._inbox.put(alloc_packet("server", "client", reply))

        server.register("h", handler)
        # Scheduled before the call exists, so at t = T it precedes the
        # call's deadline (whose tick is reserved at send time).
        early = sim.event()
        early.add_callback(deliver_jittered_reply)
        sim.schedule_at(self.T, early)
        value, _ = run_call(sim, client, "server", "h", None, timeout_us=self.T)
        assert value == "jittered"
        assert sim.now == self.T
        assert client.retransmits == 0

    def test_reply_arriving_on_the_deadline_loses_to_it(self):
        """An on-time reply at the deadline's timestamp is behind it in
        tick order and behind the caller's wake-up too: one retransmit,
        exactly as with a timer per attempt."""
        sim, net, client, server = setup_pair()

        def handler(request, packet):
            yield sim.timeout(self.T - self.RTT)
            return "on the dot"

        server.register("h", handler)
        value, _ = run_call(sim, client, "server", "h", None, timeout_us=self.T)
        assert value == "on the dot"
        assert sim.now == self.T
        assert client.retransmits == 1

    def test_earlier_deadline_after_a_backed_off_one_fires_first(self):
        sim, net, client, server = setup_pair()
        server.kill()   # nothing is ever answered
        fired = []

        def caller(tag, start, timeout_us):
            yield sim.timeout(start)
            try:
                yield from client.call("server", "h", None, timeout_us=timeout_us, max_attempts=1)
            except RpcTimeout:
                fired.append((tag, sim.now))

        sim.spawn(caller("slow", 0.0, 100.0))
        sim.spawn(caller("fast", 5.0, 10.0))    # issued later, due earlier
        sim.run()
        assert fired == [("fast", 15.0), ("slow", 100.0)]


class TestInbox:
    def test_same_timestamp_packets_ride_one_entry_in_arrival_order(self):
        sim, net, client, server = setup_pair()
        handled = []

        def tap(packet):
            handled.append((packet.payload, len(pending(sim))))
            return True

        server.tap = tap
        from repro.net import alloc_packet

        for tag in ("first", "second"):
            net.send(alloc_packet("client", "server", tag))
        sim.run()
        # Both handled in arrival order under the first packet's inbox
        # entry: nothing is pending while either is handled.
        assert handled == [("first", 0), ("second", 0)]

    def test_killed_node_drops_before_the_taps(self):
        from repro.net import alloc_packet

        sim, net, client, server = setup_pair()
        seen = []
        server.tap = lambda packet: seen.append(packet) or False
        server.kill()
        net.send(alloc_packet("client", "server", "raw"))
        sim.run()
        assert seen == []                    # dead host: not even the tap runs
        assert net.packets_delivered == 1    # it did reach the inbox
