"""Correctness-analysis layer: the repo-specific AST lint (DESIGN.md §12).

* :mod:`.reprolint` — ``reprolint``, the static gate (stdlib ``ast``
  only): one rule table, one suppression pass, one driver
  (:func:`lint_paths`) over the repo's syntactic rules — no wall-clock/
  ``random``-module calls in sim-visible code, no cross-module
  private-attribute access, generator hygiene, ``__slots__`` on hot-path
  classes.

Surface through the CLI as ``repro lint``.
"""

from .reprolint import RULES, Finding, LintReport, format_finding, lint_paths

__all__ = [
    "RULES",
    "Finding",
    "LintReport",
    "lint_paths",
    "format_finding",
]
