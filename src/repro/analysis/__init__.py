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
  (:func:`lint_paths`) over the repo's syntactic rules — no wall-clock/
  ``random``-module calls in sim-visible code, no cross-module
  private-attribute access, generator hygiene, ``__slots__`` on hot-path
  classes.

Surface through the CLI as ``repro analyze`` and ``repro lint``.
"""

from .detect import analyze_report, lock_order_cycles, race_findings
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
]
