"""Layer accounting from outside the program: a profile bucketed by package.

A layer is one of this repo's packages.  The traced repeat runs the
window under ``cProfile`` and this module turns the raw entries into

* self time and call counts per layer.  Builtins and the standard
  library (heapq, hashlib, random, array, ...) have no layer of their own:
  their time is charged to the layer that called them, through the
  profiler's caller edges, so the layers' self times add up to the whole
  profiled window;
* inclusive time and call counts of named public entry points.

The profiler counts one call per *activation*: a generator function is
counted once per resume, not once per invocation.
"""

from __future__ import annotations

import os
from collections import defaultdict
from types import CodeType
from typing import Dict, Iterable, Optional, Tuple

import repro

LAYERS = (
    "sim", "net", "switchfab", "kvstore",
    "core.client", "core.server", "core.changelog", "core.other",
    "workloads", "bench",
)

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(code) -> Optional[str]:
    """The layer a profiled function belongs to; None for builtins and stdlib."""
    if isinstance(code, str):       # builtins are reported by name only
        return None
    filename = code.co_filename
    if filename.startswith(_LEDGER_DIR):
        return "bench"
    if not filename.startswith(_REPRO_DIR):
        return None
    parts = filename[len(_REPRO_DIR):].split(os.sep)
    if parts[0] == "core":
        if parts[1] == "server":
            return "core.server"
        if parts[1] in ("client.py", "changelog.py"):
            return "core." + parts[1][:-3]
        return "core.other"
    return parts[0] if parts[0] in LAYERS else "core.other"


class Profile:
    """cProfile entries of one traced driver call, reduced to its window."""

    def __init__(self, entries: Iterable, outside_window: Iterable = ()):
        self._by_code = {e.code: e for e in entries}
        self._callers = defaultdict(list)       # callee -> [(caller, edge)]
        for entry in self._by_code.values():
            for edge in entry.calls or ():
                self._callers[edge.code].append((entry.code, edge))
        self._outside = self._outside_window(_code_of(f) for f in outside_window)
        self._shares: Dict[object, Dict[str, float]] = {}

    def _outside_window(self, roots: Iterable) -> set:
        """Everything that only ever ran under *roots*.

        What the driver call does before its window opens and after it
        closes (run_fanin builds and summarises its user tables there) is
        not the window's.  A function belongs to it when every one of its
        callers does; a generator expression or lambda that a builtin calls
        back (``sum(1 for ...)``) goes with the function that defines it.
        Whole entries only, so the counts that remain stay exact.
        """
        defined_in = {
            const: code
            for code in self._by_code if not isinstance(code, str)
            for const in code.co_consts if isinstance(const, CodeType)
        }
        outside = set(roots)
        grew = True
        while grew:
            grew = False
            for code in self._by_code:
                callers = [caller for caller, _ in self._callers[code]]
                if code in outside or isinstance(code, str) or not callers:
                    continue
                if all(
                    defined_in.get(code) in outside if isinstance(caller, str)
                    else caller in outside
                    for caller in callers
                ):
                    outside.add(code)
                    grew = True
        return outside

    def _layer_shares(self, code, path: tuple = ()) -> Dict[str, float]:
        """Which layers a function works for: its own, or its callers' by call count."""
        own = layer_of(code)
        if own is not None:
            return {own: 1.0}
        if code in self._shares:
            return self._shares[code]
        weights: Dict[str, float] = defaultdict(float)
        for caller, edge in self._callers[code]:
            if caller in path:
                continue
            for layer, share in self._layer_shares(caller, path + (code,)).items():
                weights[layer] += edge.callcount * share
        total = sum(weights.values())
        shares = {l: w / total for l, w in weights.items()} if total else {"bench": 1.0}
        if not path:
            self._shares[code] = shares
        return shares

    def by_layer(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(self seconds, calls) per layer over the window."""
        seconds = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0.0)
        for code, entry in self._by_code.items():
            if code in self._outside:
                continue
            own = layer_of(code)
            if own is not None:
                seconds[own] += entry.inlinetime
                calls[own] += entry.callcount
                continue
            edges = [(c, e) for c, e in self._callers[code] if c not in self._outside]
            for caller, edge in edges:
                for layer, share in self._layer_shares(caller).items():
                    seconds[layer] += edge.inlinetime * share
                    calls[layer] += edge.callcount * share
            if not self._callers[code]:     # the profiler's own disable()
                seconds["bench"] += entry.inlinetime
                calls["bench"] += entry.callcount
        return seconds, calls

    def entry_point(self, *functions) -> Tuple[float, int]:
        """(inclusive seconds, activations) summed over named functions."""
        seconds, calls = 0.0, 0
        for function in functions:
            entry = self._by_code.get(_code_of(function))
            if entry is not None:
                seconds += entry.totaltime
                calls += entry.callcount
        return seconds, calls


def _code_of(function):
    """The profiler's key for a Python function, or a builtin's reported name."""
    return function if isinstance(function, str) else function.__code__
