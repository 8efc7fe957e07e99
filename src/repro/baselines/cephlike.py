"""Ceph-like baseline (v12.2.13-era CephFS, per §6.1).

Static **subtree partitioning** (whole top-level subtrees per MDS) plus a
heavy software stack: CephFS stores metadata in a distributed object
store (RADOS) behind its MDS daemons, which the paper identifies as the
reason its throughput stays below 100 Kops/s on every operation.  We
model that as a large software multiplier and a per-message cost on the
shared substrate.
"""

from typing import Optional

from ..core.config import FSConfig
from ..net import FaultModel
from .common import BaselineCluster, SubtreePartition, heavy_stack

__all__ = ["CephLikeCluster", "CEPH_STACK_MULTIPLIER", "CEPH_PER_MESSAGE_US"]

#: Heavy-stack slowdown: MDS journaling through RADOS, extra daemon hops.
CEPH_STACK_MULTIPLIER = 18.0
#: Per-message cost of kernel networking + object-store round trips.
CEPH_PER_MESSAGE_US = 60.0


class CephLikeCluster(BaselineCluster):
    """Ceph-like: subtree partition + heavy-stack cost model."""

    def __init__(self, config: FSConfig, faults: Optional[FaultModel] = None):
        config = heavy_stack(config, CEPH_STACK_MULTIPLIER, CEPH_PER_MESSAGE_US)
        super().__init__(config, SubtreePartition(config.num_servers), faults=faults)
