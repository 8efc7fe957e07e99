"""Parameter sweeps: system grids, and a process-pool sweep runner.

Two layers live here:

* the **grid definitions** the per-figure benchmark files share —
  ``SYSTEMS`` maps the paper's system names to cluster factories on the
  shared substrate, and :func:`scaled_config` builds the shrunken default
  scales that keep pytest-benchmark runs tractable while preserving the
  relative shapes (EXPERIMENTS.md records both);
* the **sweep runner** (:func:`sweep`) — every benchmark point in the
  figure sweeps builds a *fresh* cluster, so the (system × op × scale)
  grids and the in-flight ladders are embarrassingly parallel.
  ``sweep`` fans such points across a process pool and merges results
  back **in input order**, so a parallel sweep returns exactly what the
  in-process loop would.

Determinism rules for sweep workers:

* the worker function must be module-level (picklable), and each point
  carries its own seed: the worker derives all randomness from it, never
  from process state;
* results are merged in input order regardless of completion order, so
  a pooled sweep and an in-process one return bit-identical results.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Dict, Iterable, List

from ..baselines import BaselineCluster, GroupedPartition, SubtreePartition, heavy_stack
from ..core import FSConfig, SwitchFSCluster
from ..core.membership import bootstrap_view

__all__ = [
    "SYSTEMS",
    "make_cluster",
    "scaled_config",
    "sweep",
]

#: name -> cluster factory (config) -> cluster.  A baseline is a placement
#: and a stack on SwitchFS's own servers and clients (repro.baselines).
SYSTEMS: Dict[str, Callable] = {
    "SwitchFS": SwitchFSCluster,
    # InfiniFS (FAST'22, reimplemented per §6.1): parent-children grouping
    # by per-directory hashing.  A file create or delete is single-server,
    # but every file of a hot directory hits one server, and directory
    # updates serialise on the parent inode lock (Figure 2's flat scaling).
    "InfiniFS": lambda cfg: BaselineCluster(cfg, GroupedPartition(cfg.num_servers)),
    # CFS-KV: InfiniFS's codebase with EuroSys'23 CFS's parent-children
    # separating (per-file hashing), which is SwitchFS's own epoch-0 view.
    # File inodes spread evenly, but every double-inode op needs a
    # cross-server transaction to update the remote parent directory.
    "CFS-KV": lambda cfg: BaselineCluster(cfg, bootstrap_view(cfg)),
    # IndexFS (SC'14): grouped like InfiniFS, on Linux kernel networking
    # with a thread-pool server, which the paper blames for its higher
    # latency (§6.2.2 obs. 3): 2.0x on every CPU segment, and 15 µs of
    # syscalls, copies and wakeups per message.
    "IndexFS": lambda cfg: BaselineCluster(
        heavy_stack(cfg, 2.0, 15.0), GroupedPartition(cfg.num_servers)),
    # Ceph (v12.2.13 CephFS): static subtree partitioning, with metadata in
    # the RADOS object store behind the MDS daemons, the paper's reason it
    # stays below 100 Kops/s on every op: 18.0x for journaling through
    # RADOS and the extra daemon hops, and 60 µs per message for kernel
    # networking and object-store round trips.
    "Ceph": lambda cfg: BaselineCluster(
        heavy_stack(cfg, 18.0, 60.0), SubtreePartition(cfg.num_servers)),
}


def make_cluster(system: str, config: FSConfig):
    try:
        return SYSTEMS[system](config)
    except KeyError:
        raise ValueError(f"unknown system {system!r}; have {sorted(SYSTEMS)}") from None


def scaled_config(
    num_servers: int = 8,
    cores_per_server: int = 4,
    **overrides,
) -> FSConfig:
    """The benchmark default configuration (single-rack, switch backend)."""
    return FSConfig(
        num_servers=num_servers, cores_per_server=cores_per_server, **overrides
    )


# ---------------------------------------------------------------------------
# process-pool sweep runner
# ---------------------------------------------------------------------------


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def sweep(fn: Callable[[Any], Any], points: Iterable[Any]) -> List[Any]:
    """Evaluate ``fn(point)`` for every point; results **in input order**.

    Points fan across a process pool of up to one worker per core when
    there is more than one point, more than one core and the ``fork``
    start method; otherwise they run in-process.  Because every point
    builds its own cluster from its own seed, both produce identical
    results.

    ``fork`` is required so workers inherit ``sys.path`` (the benchmark
    files import helpers from their own directory).
    """
    points = list(points)
    cpus = os.cpu_count() or 1
    if len(points) <= 1 or cpus <= 1 or not _fork_available():
        return [fn(p) for p in points]
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=min(cpus, len(points)), mp_context=ctx) as ex:
        return list(ex.map(fn, points))
