"""Benchmark harness: one measurement window, sweeps, and table reporters."""

from .harness import RunResult, find_peak_throughput, run_stream
from .report import Series, ascii_chart, format_table, print_table
from .presets import paper_scale
from .sweep import SYSTEMS, SweepPool, make_cluster, scaled_config

__all__ = [
    "RunResult",
    "run_stream",
    "find_peak_throughput",
    "Series",
    "print_table",
    "format_table",
    "ascii_chart",
    "SYSTEMS",
    "make_cluster",
    "scaled_config",
    "SweepPool",
    "paper_scale",
]
