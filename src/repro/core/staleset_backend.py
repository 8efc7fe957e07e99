"""Stale-set backends: in-network (switch) vs. on a regular server (§6.5.2).

The asynchronous-update protocol is not tightly coupled to the
programmable switch: the stale set can also live on a DPDK server.  The
trade-off the paper quantifies (Figure 16) is exactly what the two
backends here expose:

* :class:`SwitchBackend` — operations piggyback on packets already in
  flight, so they cost **zero additional RTTs**; the switch processes at
  line rate (no throughput ceiling relevant to a metadata cluster).
* :class:`ServerBackend` — every operation is an explicit RPC to a
  stale-set server: **+1 RTT** on the critical path, and the server's
  cores cap throughput (~11 Mops/s at 12 cores in the paper).

Metadata servers call this interface from their op workflows; in switch
mode the calls are no-ops (the header does the work), in server mode they
issue the extra RPC.
"""

from __future__ import annotations

from typing import Generator

from ..net import RpcNode
from ..sim import Resource, Simulator
from ..switchfab import StaleSet
from .config import FSConfig

__all__ = ["StaleSetServer", "ServerBackendClient"]


class StaleSetServer:
    """A regular server hosting the stale set (the DPDK-server baseline).

    Handlers charge per-operation CPU on a core pool, which produces the
    throughput wall of Figure 16(b).
    """

    def __init__(self, sim: Simulator, node: RpcNode, config: FSConfig):
        self.sim = sim
        self.node = node
        self.config = config
        self.cores = Resource(sim, config.staleset_server_cores)
        self.stale_set = StaleSet(config.stale_geometry)
        node.register("ss_insert", self._handle_insert)
        node.register("ss_query", self._handle_query)
        node.register("ss_remove", self._handle_remove)

    def _handle_insert(self, request, packet) -> Generator:
        yield self.cores.hold(self.config.staleset_server_op_us)
        return {"ok": self.stale_set.insert(request.args["fingerprint"])}

    def _handle_query(self, request, packet) -> Generator:
        yield self.cores.hold(self.config.staleset_server_op_us)
        return {"present": self.stale_set.query(request.args["fingerprint"])}

    def _handle_remove(self, request, packet) -> Generator:
        yield self.cores.hold(self.config.staleset_server_op_us)
        args = request.args
        self.stale_set.remove(
            args["fingerprint"], source=args.get("source", ""), seq=args.get("seq")
        )
        return {"ok": True}


class ServerBackendClient:
    """Metadata-server-side helper for talking to a stale-set server."""

    def __init__(self, node: RpcNode, config: FSConfig):
        self.node = node
        self.addr = config.staleset_server_addr
        self.timeout_us = config.perf.rpc_timeout_us
        self.attempts = config.perf.rpc_max_attempts

    def insert(self, fingerprint: int) -> Generator:
        value, _ = yield from self.node.call(
            self.addr, "ss_insert", {"fingerprint": fingerprint},
            timeout_us=self.timeout_us, max_attempts=self.attempts,
        )
        return value["ok"]

    def query(self, fingerprint: int) -> Generator:
        value, _ = yield from self.node.call(
            self.addr, "ss_query", {"fingerprint": fingerprint},
            timeout_us=self.timeout_us, max_attempts=self.attempts,
        )
        return value["present"]

    def remove(self, fingerprint: int, source: str, seq: int) -> Generator:
        value, _ = yield from self.node.call(
            self.addr, "ss_remove",
            {"fingerprint": fingerprint, "source": source, "seq": seq},
            timeout_us=self.timeout_us, max_attempts=self.attempts,
        )
        return value["ok"]
