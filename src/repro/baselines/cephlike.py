"""Ceph-like baseline (v12.2.13-era CephFS, per §6.1).

Static **subtree partitioning** (whole top-level subtrees per MDS) plus a
heavy software stack: CephFS stores metadata in a distributed object
store (RADOS) behind its MDS daemons, which the paper identifies as the
reason its throughput stays below 100 Kops/s on every operation.  We
model that as a large software multiplier and a per-message penalty on
the shared substrate.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..core.config import FSConfig
from ..net import FaultModel
from .common import BaselineCluster, SubtreePartition

__all__ = ["CephLikeCluster", "CEPH_STACK_MULTIPLIER", "CEPH_EXTRA_NET_US"]

#: Heavy-stack slowdown: MDS journaling through RADOS, extra daemon hops.
CEPH_STACK_MULTIPLIER = 18.0
#: Per-message penalty for kernel networking + object-store round trips.
CEPH_EXTRA_NET_US = 60.0


class CephLikeCluster(BaselineCluster):
    """Ceph-like: subtree partition + heavy-stack cost model."""

    def __init__(self, config: FSConfig, faults: Optional[FaultModel] = None):
        perf = config.perf.scaled(CEPH_STACK_MULTIPLIER, extra_net_us=CEPH_EXTRA_NET_US)
        config = dataclasses.replace(config, perf=perf)
        super().__init__(config, partition_cls=SubtreePartition, faults=faults)
