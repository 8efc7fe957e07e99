"""Unit tests for the stale-set-server backend (§6.5.2)."""

from repro.core import FSConfig
from repro.core.staleset_backend import ServerBackendClient, StaleSetServer
from repro.net import Network, PassthroughSwitch, RpcNode
from repro.sim import Simulator


def make_pair(cores=2, op_us=1.0):
    sim = Simulator()
    net = Network(sim, PassthroughSwitch())
    config = FSConfig(
        num_servers=2, stale_backend="server",
        staleset_server_cores=cores, staleset_server_op_us=op_us,
    )
    node = RpcNode(sim, net, config.staleset_server_addr)
    server = StaleSetServer(sim, node, config)
    caller_node = RpcNode(sim, net, "server-0")
    client = ServerBackendClient(caller_node, config)
    return sim, server, client


def run(sim, gen):
    return sim.run_process(sim.spawn(gen, name="op"))


FP = 0x2_0000_0042


class TestServerBackend:
    def test_insert_query_remove_cycle(self):
        sim, server, client = make_pair()
        assert run(sim, client.insert(FP)) is True
        assert run(sim, client.query(FP)) is True
        assert run(sim, client.remove(FP, "server-0", seq=1)) is True
        assert run(sim, client.query(FP)) is False

    def test_duplicate_remove_filtered(self):
        sim, server, client = make_pair()
        run(sim, client.insert(FP))
        run(sim, client.remove(FP, "server-0", seq=5))
        run(sim, client.insert(FP))
        run(sim, client.remove(FP, "server-0", seq=5))  # stale seq
        assert run(sim, client.query(FP)) is True

    def test_overflow_reports_false(self):
        sim, server, client = make_pair()
        server.stale_set = type(server.stale_set)(
            server.stale_set.geometry.__class__(num_stages=1, index_bits=1)
        )
        assert run(sim, client.insert(0x0_0000_0001)) is True
        assert run(sim, client.insert(0x0_0000_0002)) is False  # set full

    def test_cpu_capacity_bounds_throughput(self):
        """With one core at 10 us/op, 20 ops take >= 200 us of virtual time."""
        sim, server, client = make_pair(cores=1, op_us=10.0)

        def burst():
            for i in range(20):
                yield from client.query(FP)

        t0 = sim.now
        run(sim, burst())
        assert sim.now - t0 >= 200.0

    def test_more_cores_do_not_help_serial_caller(self):
        """A single closed-loop caller is latency-bound either way."""
        def elapsed(cores):
            sim, server, client = make_pair(cores=cores, op_us=5.0)

            def burst():
                for _ in range(10):
                    yield from client.query(FP)

            t0 = sim.now
            run(sim, burst())
            return sim.now - t0

        assert abs(elapsed(1) - elapsed(12)) < 1.0
