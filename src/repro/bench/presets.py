"""Configuration preset: paper (testbed) scale.

The shipped benchmarks run at laptop-simulation scale
(:func:`repro.bench.scaled_config`).  For longer, higher-fidelity runs,
:func:`paper_scale` mirrors the paper's testbed shape (Table 4): 16
metadata servers (two per dual-socket node), 12-core sockets with 4 cores
used per server by default, the full 10 × 2^17 stale set, and 256
in-flight requests from three client machines.

>>> from repro.bench.presets import paper_scale, PAPER_INFLIGHT
>>> cluster = SwitchFSCluster(paper_scale())      # doctest: +SKIP
"""

from __future__ import annotations

from ..core import FSConfig

__all__ = [
    "paper_scale",
    "PAPER_INFLIGHT",
    "PAPER_CLIENT_MACHINES",
    "PAPER_SINGLE_DIR_FILES",
    "PAPER_MULTI_DIRS",
    "PAPER_FILES_PER_DIR",
]

#: In-flight requests the paper's clients sustain in stress experiments.
PAPER_INFLIGHT = 256
#: Client machines in the testbed (Table 4).
PAPER_CLIENT_MACHINES = 3
#: Files in the single-large-directory experiment (§6.2.1).
PAPER_SINGLE_DIR_FILES = 10_000_000
#: Directory count / files per directory in the multi-directory experiment.
PAPER_MULTI_DIRS = 1024
PAPER_FILES_PER_DIR = 100_000


def paper_scale(num_servers: int = 16, cores_per_server: int = 4, **overrides) -> FSConfig:
    """The paper's deployment shape (§6.1, Table 4).

    Full-size stale set (10 stages × 2^17 registers = 1,310,720
    fingerprints) and sixteen metadata servers.  Population sizes are the
    caller's choice — simulating 10 M files is possible but slow in pure
    Python; the constants above record the paper's numbers.
    """
    overrides.setdefault("stale_stages", 10)
    overrides.setdefault("stale_index_bits", 17)
    return FSConfig(num_servers=num_servers, cores_per_server=cores_per_server,
                    **overrides)
