"""Baseline distributed filesystems on the shared substrate (§6.1)."""

from .cephlike import CephLikeCluster
from .cfskv import CFSKVCluster
from .common import BaselineCluster, GroupedPartition, SubtreePartition, heavy_stack
from .indexfs import IndexFSCluster
from .infinifs import InfiniFSCluster

__all__ = [
    "BaselineCluster", "GroupedPartition", "SubtreePartition", "heavy_stack",
    "InfiniFSCluster", "CFSKVCluster", "IndexFSCluster", "CephLikeCluster",
]
