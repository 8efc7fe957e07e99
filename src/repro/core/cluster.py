"""Cluster assembly: simulator + network + switch + servers + clients.

:class:`SwitchFSCluster` wires the whole system of Figure 4 together and
is the entry point examples, tests, and benchmarks use:

>>> from repro.core import SwitchFSCluster, FSConfig
>>> cluster = SwitchFSCluster(FSConfig(num_servers=4))
>>> fs = cluster.client(0)
>>> cluster.run_op(fs.mkdir("/projects"))
{'status': 'ok', ...}

It also drives the fault drills of §4.4/§6.7: switch failure (reset the
stale set, flush every change-log, block operations until consistent) and
server crash + WAL recovery.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..net import FaultModel, Network, PassthroughSwitch, RpcNode
from ..sim import AllOf, Simulator
from ..switchfab import ProgrammableSwitch
from .client import LibFS
from .config import FSConfig
from .membership import (
    Membership,
    MembershipView,
    Placement,
    bootstrap_view,
    plan_scale_down,
    plan_scale_up,
)
from .server import MetadataServer, ServerRuntime
from .staleset_backend import StaleSetServer

__all__ = ["Cluster", "SwitchFSCluster"]


class Cluster:
    """What every deployment, SwitchFS or baseline, is to its callers: a
    simulator, a network, servers and lazily built clients that route by
    the deployment's :class:`~repro.core.membership.Placement`."""

    client_cls = LibFS
    #: What a client built now, and ``bootstrap``, route by.
    placement: Placement
    #: The rack's programmable switch; None when the ToR only forwards.
    switch: Optional[ProgrammableSwitch] = None

    def __init__(self, config: FSConfig):
        self.config = config
        self.sim = Simulator()
        self.servers: List[ServerRuntime] = []
        # Servers retired by scale-down: no longer in the view, kept alive
        # so in-flight traffic and view-refresh RPCs still get answers.
        self.retired: List[ServerRuntime] = []
        self._clients: Dict[int, LibFS] = {}

    def client(self, idx: int = 0) -> LibFS:
        """Get (or lazily create) client *idx*'s LibFS handle."""
        fs = self._clients.get(idx)
        if fs is None:
            fs = self._clients[idx] = self.client_cls(
                self.sim, self.net, self.config.client_addr(idx), self.config, self.placement
            )
        return fs

    def server_by_addr(self, addr: str) -> ServerRuntime:
        for server in self.servers:
            if server.addr == addr:
                return server
        for server in self.retired:
            if server.addr == addr:
                return server
        raise KeyError(addr)

    def run_op(self, gen: Generator, until: Optional[float] = None):
        """Run a single client operation to completion, returning its value.

        The process is never bound to a local here: a failed op's
        traceback runs through this frame (see ``Simulator.run_process``)."""
        return self.sim.run_process(self.sim.spawn(gen, name="op"), until=until)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def switch_stats(self):
        if self.switch is None:
            return None
        return self.switch.stats()


class SwitchFSCluster(Cluster):
    """A complete simulated SwitchFS deployment."""

    def __init__(self, config: FSConfig, faults: Optional[FaultModel] = None):
        Cluster.__init__(self, config)
        self.membership = Membership(bootstrap_view(config))

        latency_us = config.perf.switch_latency_us
        if config.stale_backend == "switch":
            # The programmable switch is the rack's ToR.
            # Bound to the bootstrap *view*, not the live membership: routes
            # are an epoch snapshot the control plane reprograms explicitly
            # at each epoch bump (apply_epoch), mirroring real switch state.
            device = self.switch = ProgrammableSwitch(
                stale_config=config.stale_geometry,
                latency_us=latency_us,
                fingerprint_owner=self.membership.current.dir_owner_by_fp,
                cache_config=config.switch_cache_geometry if config.switch_cache else None,
            )
        else:
            device = PassthroughSwitch(latency_us)

        self.net = Network(
            self.sim,
            device,
            link_latency_us=config.perf.link_latency_us,
            faults=faults,
        )

        self.servers = [
            MetadataServer(self.sim, self.net, config.server_addr(i), config, self.membership)
            for i in range(config.num_servers)
        ]
        for server in self.servers:
            server.install_root()
        self._server_seq = config.num_servers

        self.staleset_server: Optional[StaleSetServer] = None
        if config.stale_backend == "server":
            node = RpcNode(self.sim, self.net, config.staleset_server_addr)
            self.staleset_server = StaleSetServer(self.sim, node, config)

    @property
    def placement(self) -> MembershipView:
        return self.membership.current

    def settle(self) -> None:
        """Run until the cluster is quiescent.

        Advances virtual time in 20 ms slices until no server holds
        pending change-log entries, then one more so in-flight acks land,
        and until every server, live or retired, holds no lock, group
        block, pull lock, deferred unlock or in-flight push
        (:meth:`MetadataServer.outstanding`).  With proactive pushes off an
        entry waits for a directory read by design, so there is no drain
        to wait for.  Raises ``RuntimeError`` naming every stuck item if
        200 slices do not get there, or then naming every directory whose
        ``entry_count`` differs from its listing
        (:meth:`MetadataServer.unsettled`).
        """
        servers = self.servers + self.retired
        proactive = self.config.proactive_enabled
        drained = False
        for _ in range(200):
            self.sim.run(until=self.sim.now + 20_000.0)
            if drained and not any(s.outstanding() for s in servers):
                break
            drained = not proactive or all(
                s.pending_changelog_entries() == 0 for s in servers)
        # A count that disagrees at rest stays so: it is read once, here.
        stuck = [item for s in servers for item in s.unsettled()]
        if stuck:
            raise RuntimeError("cluster did not settle: " + "; ".join(stuck))

    # ------------------------------------------------------------------
    # elasticity: epoch-versioned membership + live shard migration
    # ------------------------------------------------------------------
    def add_server(self) -> MetadataServer:
        """Boot a new, empty metadata server (owns nothing until a
        migration assigns it shards)."""
        addr = f"server-{self._server_seq}"
        self._server_seq += 1
        server = MetadataServer(self.sim, self.net, addr, self.config, self.membership)
        # A joiner missed every invalidation broadcast so far; clone the
        # list from a member (same mechanism crash recovery uses).
        if self.servers:
            server.inval.restore(self.servers[0].inval.snapshot())
        self.servers.append(server)
        return server

    def scale_up_gen(self) -> Generator:
        """Join one server and migrate its shard quota to it, live."""
        joiner = self.add_server()
        servers, shard_table, moved = plan_scale_up(self.membership.current, joiner.addr)
        stats = yield from self._migrate_gen(servers, shard_table, moved)
        stats["joined"] = joiner.addr
        return stats

    def scale_down_gen(self, addr: str) -> Generator:
        """Migrate every shard off *addr*, then retire it from the view.

        The retired server stays network-reachable: clients with a stale
        view still reach it for redirects and membership refreshes, and
        any change-log entries that slip in during the hand-off drain out
        through the ordinary push path.
        """
        leaver = self.server_by_addr(addr)
        servers, shard_table, moved = plan_scale_down(self.membership.current, addr)
        stats = yield from self._migrate_gen(
            servers, shard_table, moved, leaving=leaver
        )
        stats["left"] = addr
        return stats

    def _migrate_gen(
        self,
        servers: Tuple[str, ...],
        shard_table: Tuple[str, ...],
        moved: Tuple[int, ...],
        leaving: Optional[MetadataServer] = None,
    ) -> Generator:
        """Two-phase live migration to the (*servers*, *shard_table*) view.

        Phase A (online) drains the moving fingerprint groups through the
        normal aggregation path while traffic keeps flowing.  Phase B (the
        measured stall) gates the source servers, quiesces in-flight
        mutators, ships each shard package, bumps the membership epoch,
        reprograms the switch routes, and reclaims provably-settled
        stale-set bits — in that order, so a client can never reach the
        new owner before its state is installed, nor keep mutating the old
        one after its state left.
        """
        old_view = self.membership.current
        num_shards = old_view.num_shards
        moving = set(moved)
        moves: Dict[Tuple[str, str], List[int]] = {}
        for shard in moved:
            pair = (old_view.shard_table[shard], shard_table[shard])
            moves.setdefault(pair, []).append(shard)
        stats: Dict[str, Any] = {
            "shards_moved": len(moved),
            "migrated_keys": 0,
            "staged_entries": 0,
            "stale_bits_cleared": 0,
        }

        # --- Phase A: online drain of the moving groups -----------------
        drain_start = self.sim.now
        drain_fps = set()
        for server in self.servers:
            for fp in server.changelogs.non_empty_groups():
                if fp % num_shards in moving:
                    drain_fps.add(fp)
        drains = [
            self.sim.spawn(
                self.server_by_addr(
                    old_view.dir_owner_by_fp(fp)
                ).drain_group_for_migration(fp),
                name="migrate-drain",
            )
            for fp in sorted(drain_fps)
        ]
        if drains:
            yield AllOf(self.sim, drains)
        # drain_groups disambiguates the zero case: drain_us == 0.0 with
        # drain_groups == 0 means nothing needed draining (the moving
        # shards held no pending change-log entries — common when the hot
        # group stays put or aggregation already flushed), while a zero
        # drain_us with drain_groups > 0 would mean instant drains.
        stats["drain_groups"] = len(drain_fps)
        stats["drain_us"] = self.sim.now - drain_start

        # --- Phase B: gated cutover -------------------------------------
        stall_start = self.sim.now
        sources: List[MetadataServer] = []
        for src, _tgt in moves:
            server = self.server_by_addr(src)
            if server not in sources:
                sources.append(server)
        if leaving is not None and leaving not in sources:
            sources.append(leaving)
        for server in sources:
            server.begin_recovery()
        quiescers = [
            self.sim.spawn(s.quiesce_for_migration(), name="migrate-quiesce")
            for s in sources
        ]
        if quiescers:
            yield AllOf(self.sim, quiescers)
        if leaving is not None:
            # Ship the leaver's foreign-group backlog while nothing new
            # can arrive; its own groups self-apply into the KV state the
            # collect below will package.
            yield from leaving.flush_all_changelogs()
        migrated_fps: set = set()
        packages: List[Tuple[MetadataServer, Dict[str, Any]]] = []
        for (src, tgt), shard_list in moves.items():
            source = self.server_by_addr(src)
            package = yield from source.collect_shards(set(shard_list))
            migrated_fps.update(package["fingerprints"])
            value = yield from source.ship_package(tgt, package)
            stats["migrated_keys"] += value["installed"]
            stats["staged_entries"] += value["staged"]
            packages.append((source, package))
        new_view = self.membership.advance(
            servers=servers, shard_table=shard_table
        )
        if self.switch is not None:
            self.switch.apply_epoch(new_view)
            # Reclaim stale-set bits for groups that are provably
            # settled: zero staged entries anywhere and zero drained
            # entries still in flight, checked atomically while the
            # sources are quiesced.  Anything else clears lazily via
            # the normal aggregation REMOVE.
            safe = [
                fp
                for fp in sorted(migrated_fps)
                if self._pending_for_fp(fp) == 0
            ]
            stats["stale_bits_cleared"] = self.switch.reconcile_stale_set(safe)
        for source, package in packages:
            yield from source.discard_shards(package)
        for server in sources:
            server.end_recovery()
        stats["stall_us"] = self.sim.now - stall_start
        if leaving is not None:
            self.servers.remove(leaving)
            self.retired.append(leaving)
            # Pushes that sat queued at the gate during the stall resumed
            # just now; flush once more so the leaver retires empty (the
            # idle sweeper keeps it that way afterwards).
            yield from leaving.flush_all_changelogs()
        stats["epoch"] = new_view.epoch
        return stats

    def _pending_for_fp(self, fp: int) -> int:
        """Cluster-wide pending-entry count for one fingerprint group,
        including entries drained for a push that has not landed yet."""
        total = 0
        for server in self.servers + self.retired:
            total += server.pushes_in_flight(fp)
            for log in server.changelogs.logs_in_group(fp):
                total += len(log)
        return total

    # ------------------------------------------------------------------
    # fault drills (§4.4, §6.7)
    # ------------------------------------------------------------------
    def fail_switch(self) -> float:
        """Crash the switch and run the flush-based recovery.

        Returns the simulated recovery duration in microseconds.  All
        filesystem operations are blocked during recovery (§4.4.2).
        """
        if self.switch is None:
            raise RuntimeError("no programmable switch in server-backend mode")
        start = self.sim.now
        self.switch.reset()
        members = self.servers + self.retired
        for server in members:
            server.begin_recovery()

        def drive():
            flushes = [
                self.sim.spawn(server.flush_all_changelogs(), name="flush")
                for server in members
            ]
            yield AllOf(self.sim, flushes)
            for server in members:
                server.end_recovery()

        proc = self.sim.spawn(drive(), name="switch-recovery")
        self.sim.run_process(proc)
        return self.sim.now - start

    def crash_server(self, idx: int) -> None:
        """Server *idx* loses all DRAM state and stops answering."""
        self.servers[idx].crash()

    def recover_server(self, idx: int) -> float:
        """WAL-replay recovery of server *idx*; returns simulated duration."""
        server = self.servers[idx]
        peer = next(
            (a for a in self.membership.current.servers if a != server.addr), None
        )
        start = self.sim.now
        proc = self.sim.spawn(server.recover(peer=peer), name="server-recovery")
        self.sim.run_process(proc)
        return self.sim.now - start

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def total_pending_entries(self) -> int:
        return sum(
            s.pending_changelog_entries() for s in self.servers + self.retired
        )
