"""IndexFS-like baseline (SC'14, per §6.1).

Grouped (per-directory) partitioning like InfiniFS, but IndexFS runs on
Linux kernel networking with a thread-pool server — the paper attributes
its higher latency to exactly that (§6.2.2 obs. 3).  We model it as the
grouped baseline with a per-message kernel-networking penalty and a
thread-pool software multiplier on CPU segments.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..core.config import FSConfig
from ..net import FaultModel
from .common import BaselineCluster, GroupedPartition

__all__ = ["IndexFSCluster", "INDEXFS_STACK_MULTIPLIER", "INDEXFS_EXTRA_NET_US"]

#: Thread-pool + kernel-stack slowdown vs. the DPDK/coroutine framework.
INDEXFS_STACK_MULTIPLIER = 2.0
#: Per-message kernel networking cost (syscalls, copies, wakeups).
INDEXFS_EXTRA_NET_US = 15.0


class IndexFSCluster(BaselineCluster):
    """IndexFS-like: grouped partition + kernel-networking cost model."""

    def __init__(self, config: FSConfig, faults: Optional[FaultModel] = None):
        perf = config.perf.scaled(
            INDEXFS_STACK_MULTIPLIER, extra_net_us=INDEXFS_EXTRA_NET_US
        )
        config = dataclasses.replace(config, perf=perf)
        super().__init__(config, partition_cls=GroupedPartition, faults=faults)
