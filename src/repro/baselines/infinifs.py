"""InfiniFS-like baseline (FAST'22, reimplemented per §6.1).

Parent-children **grouping** via per-directory hashing: a directory's
file inodes and entry list colocate with the directory on one server, so
file create/delete are single-server (no cross-server transaction) —
but every file of a hot directory hits the same server, and directory
updates serialise on the parent inode lock (Figure 2's flat scaling).
"""

from typing import Optional

from ..core.config import FSConfig
from ..net import FaultModel
from .common import BaselineCluster, GroupedPartition

__all__ = ["InfiniFSCluster"]


class InfiniFSCluster(BaselineCluster):
    """InfiniFS on the shared substrate: grouped partition + sync updates."""

    def __init__(self, config: FSConfig, faults: Optional[FaultModel] = None):
        super().__init__(config, GroupedPartition(config.num_servers), faults=faults)
