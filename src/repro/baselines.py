"""The baseline distributed filesystems on the shared substrate (§6.1).

The paper builds InfiniFS and CFS-KV "on the same storage and networking
framework" as SwitchFS, so that only the *metadata scheme* differs.  Here
a baseline is SwitchFS's own :class:`~repro.core.server.MetadataServer`
and :class:`~repro.core.client.LibFS` with ``async_updates=False`` —
every double-inode op updates its parent before replying, cross-server
through the prepare / commit exchange that holds the parent's lock
across both phases — routed by its
:class:`~repro.core.membership.Placement` (§2.2, Figure 1):

* CFS-KV's parent-children *separating* is the epoch-0 membership view
  (:func:`~repro.core.membership.bootstrap_view`): balanced, but
  double-inode ops need cross-server transactions;
* :class:`GroupedPartition` — parent-children *grouping* (InfiniFS,
  IndexFS): file creates are local, but a directory's files all live on
  one server (hotspots);
* :class:`SubtreePartition` — Ceph-style: whole top-level subtrees on one
  server.

A heavier software stack (IndexFS, Ceph) is data: :func:`heavy_stack`.
Each system is one row of :data:`repro.bench.sweep.SYSTEMS`, which pairs
a placement with a stack.
"""

import hashlib
from dataclasses import replace

from .core.cluster import Cluster
from .core.config import FSConfig
from .core.membership import Membership, Placement
from .core.schema import new_dir_id
from .core.server import MetadataServer
from .net import Network, PassthroughSwitch

__all__ = ["GroupedPartition", "SubtreePartition", "BaselineCluster", "heavy_stack"]


def _h(val: str) -> int:
    return int.from_bytes(hashlib.sha256(val.encode()).digest()[:8], "big")


class _StaticPartition:
    """A placement that never moves: no epochs, no migration."""

    epoch = 0
    rename_coordinator = "server-0"

    def __init__(self, num_servers: int):
        self.num_servers = num_servers

    def _addr(self, idx: int) -> str:
        return f"server-{idx % self.num_servers}"

    def root_owner(self) -> str:
        return self._addr(_h("root"))

    def dir_id(self, pid: int, name: str, nonce: int) -> int:
        """Deterministic (*nonce* unused): a grouped partition places a
        directory's children by an id it knows before the mkdir."""
        return new_dir_id(pid, name, 0)


class GroupedPartition(_StaticPartition):
    """InfiniFS/IndexFS-style grouping: a directory's children (file inodes
    and entry list) colocate on the server hashed from the directory's id."""

    def file_owner(self, pid: int, name: str, dir_path: str) -> str:
        return self._addr(pid)

    def dir_owner(self, pid: int, name: str, path: str) -> str:
        if pid == 0:  # the root inode itself
            return self.root_owner()
        return self._addr(self.dir_id(pid, name, 0))


class SubtreePartition(_StaticPartition):
    """Ceph-style static subtree partitioning: everything under one
    top-level directory lands on one server."""

    def _top(self, path: str) -> str:
        parts = path.lstrip("/").split("/")
        return parts[0] if parts and parts[0] else "/"

    def file_owner(self, pid: int, name: str, dir_path: str) -> str:
        return self._addr(_h(self._top(dir_path)))

    def dir_owner(self, pid: int, name: str, path: str) -> str:
        if pid == 0:
            return self.root_owner()
        return self._addr(_h(self._top(path)))


def heavy_stack(config: FSConfig, multiplier: float, per_message_us: float) -> FSConfig:
    """*config* on a heavier software stack: every CPU segment *multiplier*
    times longer, and every message a handler serves *per_message_us*
    more, folded into what each request (its path check) and each
    transaction phase already charge."""
    perf = config.perf.scaled(multiplier)
    return replace(config, perf=replace(
        perf, path_check_us=perf.path_check_us + per_message_us,
        txn_phase_us=perf.txn_phase_us + per_message_us,
    ))


class BaselineCluster(Cluster):
    """A baseline deployment: the cluster base with metadata servers that
    update parents synchronously, routed by *placement*, behind a switch
    that forwards and nothing else."""

    def __init__(self, config: FSConfig, placement: Placement):
        # With the stale set declared out of the switch, no client sends a
        # QUERY or a LOOKUP header.
        config = replace(config, async_updates=False, recast=False,
                         stale_backend="server", switch_cache=False)
        Cluster.__init__(self, config)
        self.placement = placement
        self.net = Network(
            self.sim,
            PassthroughSwitch(latency_us=config.perf.switch_latency_us),
            link_latency_us=config.perf.link_latency_us,
        )
        membership = Membership(placement)
        self.servers = [
            MetadataServer(self.sim, self.net, config.server_addr(i), config, membership)
            for i in range(config.num_servers)
        ]
        for server in self.servers:
            server.install_root()
