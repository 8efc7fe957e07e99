"""CFS-KV baseline (EuroSys'23 CFS's partition strategy, per §6.1).

The paper builds CFS-KV by replacing InfiniFS's grouping with CFS's
parent-children **separating** (per-file hashing) on the same codebase.
File inodes spread evenly (perfect balance for single-inode ops), but
every double-inode operation needs a cross-server transaction to update
the remote parent directory — the overhead AsyncFS hides.  Its placement
is SwitchFS's own epoch-0 view.
"""

from typing import Optional

from ..core.config import FSConfig
from ..core.membership import bootstrap_view
from ..net import FaultModel
from .common import BaselineCluster

__all__ = ["CFSKVCluster"]


class CFSKVCluster(BaselineCluster):
    """CFS-KV on the shared substrate: per-file partition + sync updates."""

    def __init__(self, config: FSConfig, faults: Optional[FaultModel] = None):
        super().__init__(config, bootstrap_view(config), faults=faults)
