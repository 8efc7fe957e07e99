"""SwitchFS/AsyncFS reproduction: asynchronous metadata updates for
distributed filesystems with in-network coordination (EuroSys 2026).

Subpackages
-----------
``repro.core``
    The paper's contribution: the SwitchFS metadata service — asynchronous
    directory updates, change-log recast, in-network stale set
    coordination, LibFS clients, and cluster assembly.
``repro.switchfab``
    The programmable-switch data plane (register stages, stale set,
    parser/router/rewriter device, control plane).
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
The paper names the system **SwitchFS** in its title and **AsyncFS** in
its evaluation; both name the same design.  This package exposes aliases
under the AsyncFS terminology (``AsyncFSCluster``, ``AsyncFSServer``,
``AsyncFSClient``, ``AsyncFSConfig``) resolving to the SwitchFS-named
classes, so code written against either vocabulary reads naturally.
"""

import importlib

__version__ = "0.1.0"

# AsyncFS-terminology aliases -> (module, canonical name).  Resolved
# lazily (PEP 562) so `import repro` stays cheap and free of cycles.
_ALIASES = {
    "AsyncFSCluster": ("repro.core", "SwitchFSCluster"),
    "AsyncFSServer": ("repro.core", "MetadataServer"),
    "AsyncFSClient": ("repro.core", "LibFS"),
    "AsyncFSConfig": ("repro.core", "FSConfig"),
    "AsyncFSRuntime": ("repro.core", "ServerRuntime"),
}

__all__ = ["__version__", *sorted(_ALIASES)]


def __getattr__(name: str):
    try:
        module, canonical = _ALIASES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module), canonical)


def __dir__():
    return sorted(set(globals()) | set(_ALIASES))
