"""SwitchFS reproduction: asynchronous metadata updates for
distributed filesystems with in-network coordination (EuroSys 2026).

Subpackages
-----------
``repro.core``
    The paper's contribution: the SwitchFS metadata service — asynchronous
    directory updates, change-log recast, in-network stale set
    coordination, LibFS clients, and cluster assembly.
``repro.switchfab``
    The programmable-switch data plane: register stages, the stale set,
    the dentry cache, and the one parser/router/rewriter switch.
``repro.net``
    Simulated UDP fabric: packets and headers, faults, topologies, RPC.
``repro.kvstore``
    Ordered in-memory KV store with WAL (the RocksDB stand-in).
``repro.sim``
    Deterministic discrete-event kernel everything runs on.
``repro.baselines``
    InfiniFS / CFS-KV / IndexFS-like / Ceph-like on the same substrate.
``repro.workloads``
    Op mixes (Tables 1 & 5), populations, bursts, and trace synthesis.
``repro.bench``
    One measurement window for closed- and open-loop runs, sweeps, and
    reporters for every table/figure.

Quickstart
----------
>>> from repro.core import SwitchFSCluster, FSConfig
>>> cluster = SwitchFSCluster(FSConfig(num_servers=4))
>>> fs = cluster.client(0)
>>> cluster.run_op(fs.mkdir("/data"))["status"]
'ok'

Terminology
-----------
The paper names the system **SwitchFS** in its title; its preprint
(arXiv 2410.08618) calls the same design **AsyncFS**.  This package uses
SwitchFS throughout.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
