"""IndexFS-like baseline (SC'14, per §6.1).

Grouped (per-directory) partitioning like InfiniFS, but IndexFS runs on
Linux kernel networking with a thread-pool server — the paper attributes
its higher latency to exactly that (§6.2.2 obs. 3).  We model it as the
grouped baseline with a per-message kernel-networking cost and a
thread-pool software multiplier on CPU segments.
"""

from typing import Optional

from ..core.config import FSConfig
from ..net import FaultModel
from .common import BaselineCluster, GroupedPartition, heavy_stack

__all__ = ["IndexFSCluster", "INDEXFS_STACK_MULTIPLIER", "INDEXFS_PER_MESSAGE_US"]

#: Thread-pool + kernel-stack slowdown vs. the DPDK/coroutine framework.
INDEXFS_STACK_MULTIPLIER = 2.0
#: Per-message kernel networking cost (syscalls, copies, wakeups).
INDEXFS_PER_MESSAGE_US = 15.0


class IndexFSCluster(BaselineCluster):
    """IndexFS-like: grouped partition + kernel-networking cost model."""

    def __init__(self, config: FSConfig, faults: Optional[FaultModel] = None):
        config = heavy_stack(config, INDEXFS_STACK_MULTIPLIER, INDEXFS_PER_MESSAGE_US)
        super().__init__(config, GroupedPartition(config.num_servers), faults=faults)
