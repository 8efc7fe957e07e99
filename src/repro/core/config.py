"""Configuration: cluster shape, performance model, and feature flags.

The performance model charges simulated CPU microseconds for each service
segment of a metadata operation.  Relative magnitudes follow the paper's
measurements (e.g. a change-log append is much cheaper than a directory
inode update; a directory inode update dominates contended create paths);
absolute values are calibrated so a four-core metadata server peaks in the
tens-to-hundreds of Kops/s range the evaluation reports.

Feature flags reproduce the ablation of §6.5.1:

* ``async_updates=False``                     — the **Baseline** (synchronous
  updates over per-file partitioning);
* ``async_updates=True, recast=False``        — **+Async**;
* ``async_updates=True, recast=True``         — **+Recast** (full SwitchFS).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..switchfab import TableGeometry

__all__ = ["PerfModel", "FSConfig"]

#: Fixed shard space for epoch-versioned membership: fingerprints and files
#: hash into ``num_servers * SHARDS_PER_SERVER`` shards; migration reassigns
#: shards to servers without rehashing keys.
SHARDS_PER_SERVER = 8


@dataclass(frozen=True)
class PerfModel:
    """Simulated latency/CPU cost constants (all microseconds)."""

    # Network.
    link_latency_us: float = 0.75      # one-way per link; client RTT ~3 us
    switch_latency_us: float = 0.05    # programmable switch forwarding delay
    rpc_timeout_us: float = 400.0      # retransmission timer (exponential
                                       # backoff doubles it per attempt)
    rpc_max_attempts: int = 10

    # Client-side costs.
    client_cpu_us: float = 0.5         # per-op client bookkeeping
    cache_lookup_us: float = 0.1       # metadata cache hit

    # Server-side service segments (charged on a core).
    path_check_us: float = 2.0         # validation + permission checks
    kv_get_us: float = 2.0             # point read from the KV store
    kv_put_us: float = 4.0             # point write to the KV store
    wal_append_us: float = 3.0         # persistent log append
    changelog_append_us: float = 1.0   # local change-log append (cheap)
    dir_inode_update_us: float = 12.0  # directory inode mutation (timestamps,
                                       # size) — the contended segment
    dir_entry_put_us: float = 2.0      # one entry-list put/delete
    txn_phase_us: float = 3.0          # one phase of a distributed txn (2PC)
    readdir_per_entry_us: float = 0.05 # scan cost per returned entry
    agg_check_us: float = 2.0          # directory reads checking for
                                       # in-flight aggregations (§6.2.2:
                                       # statdir +28.6% vs InfiniFS)

    # Software-stack multiplier for behavioural baselines (§6.2.2 obs. 3).
    stack_multiplier: float = 1.0      # scales every CPU segment

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"PerfModel.{name} must be >= 0, got {value}")
        if self.rpc_timeout_us <= 0:
            raise ValueError(f"PerfModel.rpc_timeout_us must be > 0, got {self.rpc_timeout_us}")
        if self.rpc_max_attempts < 1:
            raise ValueError(f"PerfModel.rpc_max_attempts must be >= 1, got {self.rpc_max_attempts}")

    def scaled(self, factor: float) -> "PerfModel":
        """A copy with all CPU segments scaled (heavy-stack baselines)."""
        return replace(self, stack_multiplier=self.stack_multiplier * factor)


@dataclass(frozen=True)
class FSConfig:
    """Cluster shape and protocol feature flags."""

    num_servers: int = 4
    cores_per_server: int = 4
    # Read by nothing: streams and fault models take their own seeds.  Kept
    # only because benchmarks/ledger/scenarios.py passes it (ROADMAP item 4).
    seed: int = 42

    # Protocol features (ablation knobs, §6.5.1).
    async_updates: bool = True
    recast: bool = True

    # Stale-set backend: the programmable switch or a regular server (§6.5.2).
    stale_backend: str = "switch"          # "switch" | "server"
    staleset_server_cores: int = 12
    staleset_server_op_us: float = 1.1     # ~11 Mops/s at 12 cores (Fig 16b)

    # Stale-set geometry (shrunk from the paper's 10 x 2^17 for test speed;
    # semantics identical).
    stale_stages: int = 10
    stale_index_bits: int = 10

    # In-switch hot-dentry cache (Fletch-style, DESIGN.md §15).  Off by
    # default: the write-path sim values are bit-identical to a build
    # without the cache when disabled (pinned-fig11 guards this).
    switch_cache: bool = False
    switch_cache_stages: int = 4
    switch_cache_index_bits: int = 10

    # Proactive aggregation (§4.3).
    proactive_push_entries: int = 29       # change-log entries per MTU
    proactive_enabled: bool = True

    perf: PerfModel = field(default_factory=PerfModel)

    def __post_init__(self):
        if self.num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {self.num_servers}")
        if self.cores_per_server < 1:
            raise ValueError(f"cores_per_server must be >= 1, got {self.cores_per_server}")
        if self.stale_backend not in ("switch", "server"):
            raise ValueError(f"unknown stale_backend: {self.stale_backend!r}")
        if self.recast and not self.async_updates:
            raise ValueError("recast requires async_updates")
        if self.proactive_push_entries < 1:
            raise ValueError("proactive_push_entries must be >= 1")
        if self.staleset_server_cores < 1:
            raise ValueError(
                f"staleset_server_cores must be >= 1, got {self.staleset_server_cores}")
        if self.staleset_server_op_us < 0:
            raise ValueError(
                f"staleset_server_op_us must be >= 0, got {self.staleset_server_op_us}")
        if self.switch_cache and self.stale_backend != "switch":
            raise ValueError("switch_cache requires stale_backend='switch'")
        # Building a geometry validates it (stages >= 1, index bits within
        # the fingerprint); the cache's is checked whether or not it is on.
        for table in ("stale", "switch_cache"):
            try:
                getattr(self, f"{table}_geometry")
            except ValueError as exc:
                raise ValueError(f"{table}_stages / {table}_index_bits: {exc}") from None

    def server_addr(self, idx: int) -> str:
        if not 0 <= idx < self.num_servers:
            raise ValueError(f"server index out of range: {idx}")
        return f"server-{idx}"

    def client_addr(self, idx: int) -> str:
        return f"client-{idx}"

    @property
    def server_addrs(self):
        return [self.server_addr(i) for i in range(self.num_servers)]

    @property
    def num_shards(self) -> int:
        """Size of the fixed shard space (constant for a run's lifetime)."""
        return self.num_servers * SHARDS_PER_SERVER

    @property
    def stale_geometry(self) -> TableGeometry:
        return TableGeometry(self.stale_stages, self.stale_index_bits)

    @property
    def switch_cache_geometry(self) -> TableGeometry:
        return TableGeometry(self.switch_cache_stages, self.switch_cache_index_bits)

    @property
    def staleset_server_addr(self) -> str:
        return "staleset-server"
