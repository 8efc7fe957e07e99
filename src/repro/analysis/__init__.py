"""Correctness-analysis layer: dynamic race/lock-order detection and the
repo-specific AST lint (DESIGN.md §12).

All opt-in and zero-cost when disabled:

* :mod:`.trace` — :class:`SimTracer`, the dynamic instrumentation sink
  for the simulation kernel: per-process lock/resource acquire–release
  events and shared-state accesses between yield points.
* :mod:`.detect` — analyses over a tracer's event stream: lock-order
  cycle detection (potential deadlock) and Eraser-style lockset race
  detection on server/changelog state.
* :mod:`.reprolint` — ``reprolint``, the static gate (stdlib ``ast``
  only): one rule table, one suppression pass, one driver
  (:func:`lint_paths`) over the syntactic repo rules — no wall-clock/
  ``random``-module calls in sim-visible code, no cross-module
  private-attribute access, generator hygiene, ``__slots__`` on hot-path
  classes — and the flow-sensitive ones.
* :mod:`.cfg` / :mod:`.callgraph` / :mod:`.flow` — the flow-sensitive
  rules (DESIGN.md §17): generator-aware CFGs with explicit yield/resume
  edges, a name-resolved project call graph, and two interprocedural
  analyses (RL103 static lock-order graph cross-checked against
  SimTracer's dynamic one, RL104 stale-view-across-yield).

Surface through the CLI as ``repro analyze`` and ``repro lint``.
"""

from .detect import analyze_report, lock_order_cycles, race_findings
from .flow import FlowReport, analyze_paths, cross_check_lock_orders
from .reprolint import RULES, Finding, LintReport, format_finding, lint_paths
from .trace import SimTracer, instrument_server

__all__ = [
    "SimTracer",
    "instrument_server",
    "analyze_report",
    "lock_order_cycles",
    "race_findings",
    "RULES",
    "Finding",
    "LintReport",
    "lint_paths",
    "format_finding",
    "FlowReport",
    "analyze_paths",
    "cross_check_lock_orders",
]
