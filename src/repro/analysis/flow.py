"""Flow-sensitive static rules over generator-aware CFGs (DESIGN.md §17).

Two rules, both path-sensitive — the static complement of the *dynamic*
detectors in :mod:`repro.analysis.trace`/:mod:`~repro.analysis.detect`
(which certify only the schedules that actually ran) and of the
*syntactic* ``reprolint`` rules (which see one suite at a time):

RL103 ``lock-order-cycle``
    The whole-program static acquisition graph at lock-*class* level
    ("held A while acquiring B" on any path, interprocedurally through
    ``yield from``), every site of every edge kept.  Each elementary
    cycle is reported at **every site of its least-witnessed edge** (for
    a self-loop: every line that nests two locks of one class), so each
    multi-lock line carries its own justification — the instance-level
    order that holds *there* — and a new one cannot hide behind an old
    one's.  The graph is cross-checked against SimTracer's dynamic
    first-witness graph: a dynamic edge the static graph misses flags
    the *analysis* (unsound resolution), a static cycle never seen
    dynamically flags an *untested schedule*.

RL104 ``stale-view-across-yield``
    A captured ``MembershipView``/epoch value (an expression reading
    ``.view``/``._view``/``.current`` or calling ``view_epoch``) used
    after a resume point without being re-read.  Any suspension can
    interleave a membership epoch bump, so a pre-yield capture may route
    to a pre-migration owner.

:func:`analyze_paths` returns the *raw* findings; suppression and the
dead-suppression audit are ``reprolint``'s one pass over every rule's
findings (:func:`repro.analysis.reprolint.lint_paths`).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .callgraph import (
    RELEASE_METHODS,
    FuncInfo,
    Project,
    acquire_call,
    receiver_name,
    scan_project,
)
from .cfg import CFG, CFGNode, build_cfg, stmt_yields
from .reprolint import Finding

__all__ = ["FlowReport", "analyze_paths", "cross_check_lock_orders"]

#: (held_class, acquired_class) -> every ``(path, line)`` acquiring so
LockGraph = Dict[Tuple[str, str], Set[Tuple[str, int]]]

# Files whose *implementation* is the thing being modelled: analysing the
# lock primitives as their own clients is meaningless.
_EXEMPT_PARTS = {"tests", "benchmarks"}
_EXEMPT_SUFFIXES = ("sim/kernel.py", "sim/resources.py")
_EXEMPT_DIR_SUFFIXES = ("analysis",)

_VIEW_ATTRS = {"view", "_view", "current"}
_VIEW_CALLS = {"view_epoch"}


def _exempt(path: str) -> bool:
    p = Path(path)
    posix = p.as_posix()
    if any(part in _EXEMPT_PARTS for part in p.parts):
        return True
    if any(part in _EXEMPT_DIR_SUFFIXES for part in p.parts[:-1]):
        return True
    return any(posix.endswith(s) for s in _EXEMPT_SUFFIXES)


# ---------------------------------------------------------------------------
# generic forward dataflow driver
# ---------------------------------------------------------------------------
def _forward(cfg: CFG, init: Any, transfer, join) -> Dict[int, Any]:
    """Worklist forward dataflow; returns the in-state per node index."""
    states: Dict[int, Any] = {cfg.entry: init}
    work = [cfg.entry]
    while work:
        idx = work.pop()
        out = transfer(cfg.nodes[idx], states[idx])
        for succ, _kind in cfg.succs[idx]:
            prev = states.get(succ)
            merged = out if prev is None else join(prev, out)
            if merged != prev:
                states[succ] = merged
                work.append(succ)
    return states


# ---------------------------------------------------------------------------
# RL103: lock dataflow
# ---------------------------------------------------------------------------
def _lockvar_classes(info: FuncInfo, project: Project) -> Dict[str, str]:
    """Flow-insensitive map: local name -> lock class it can hold.

    Covers direct producer calls (``klock = self._inode_lock(key)``),
    one-level aliases, list/comprehension element classes, ``for``
    targets iterating such lists, and the lock a delegate hands back
    still held (``lock = yield from self._take_group(fp)``: the callee's
    residual class).
    """
    classes: Dict[str, str] = {}
    elem: Dict[str, str] = {}

    def class_of(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Call):
            return project.producer_class_of_call(expr)
        if isinstance(expr, ast.Name):
            return classes.get(expr.id)
        if isinstance(expr, ast.YieldFrom) and isinstance(expr.value, ast.Call):
            # ``lock = yield from self._acquire(self._inode_lock(key), "w")``
            for callee in project.resolve_call(expr.value):
                idx = callee.acquire_wrapper_param
                if idx is not None and idx < len(expr.value.args):
                    return class_of(expr.value.args[idx])
                if callee.residual_classes:
                    return min(callee.residual_classes)
        return None

    def elem_class_of(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return class_of(expr.elt)
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)) and expr.elts:
            for e in expr.elts:
                cls = class_of(e)
                if cls is not None:
                    return cls
        if isinstance(expr, ast.Name):
            return elem.get(expr.id)
        return None

    for _ in range(2):  # two rounds propagate one level of aliasing
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                cls = class_of(node.value)
                if cls is not None:
                    classes[name] = cls
                ecls = elem_class_of(node.value)
                if ecls is not None:
                    elem[name] = ecls
            elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                ecls = elem_class_of(node.iter)
                if ecls is not None:
                    classes[node.target.id] = ecls
    return classes


class _LockAnalysis:
    """Held-lock-class dataflow over one generator's CFG.

    Produces RL103 graph edges and the function's ``acquired_classes``/
    ``residual_classes`` summaries (driven to a fixpoint across the
    project by :func:`analyze_paths`).
    """

    def __init__(self, info: FuncInfo, cfg: CFG, project: Project,
                 graph: LockGraph) -> None:
        self.info = info
        self.cfg = cfg
        self.project = project
        self.graph = graph
        self.lockvars = _lockvar_classes(info, project)
        self.acquired: Set[str] = set()
        self.residual: Set[str] = set()

    # -- helpers ---------------------------------------------------------
    def _class_of_expr(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self.lockvars.get(expr.id)
        if isinstance(expr, ast.Call):
            return self.project.producer_class_of_call(expr)
        return None

    def _record_edges(self, held: Iterable[str], acquired: Iterable[str],
                      node: CFGNode) -> None:
        site = (self.info.path, node.lineno)
        for cls in acquired:
            self.acquired.add(cls)
            for h in held:
                self.graph.setdefault((h, cls), set()).add(site)

    # -- dataflow --------------------------------------------------------
    def run(self) -> None:
        states = _forward(self.cfg, frozenset(), self.transfer,
                          lambda a, b: a | b)
        self.residual = set(states.get(self.cfg.exit, ())) | \
            set(states.get(self.cfg.raise_exit, ()))

    def transfer(self, node: CFGNode, held: FrozenSet[str]) -> FrozenSet[str]:
        out = set(held)
        stmt = node.stmt
        if node.kind == "yield" and node.expr is not None:
            expr = node.expr
            if isinstance(expr, ast.YieldFrom):
                if isinstance(expr.value, ast.Call):
                    out |= self._apply_delegation(expr.value, held, node)
            else:
                call = acquire_call(expr.value)
                if call is not None:
                    cls = self._class_of_expr(call.func.value)
                    if cls is not None:
                        self._record_edges(held, [cls], node)
                        out.add(cls)
            return frozenset(out)
        if stmt is None:
            return held
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            fn = sub.func
            if isinstance(fn, ast.Attribute):
                if fn.attr in {"try_acquire_read", "try_acquire_write",
                               "try_acquire"}:
                    cls = self._class_of_expr(fn.value)
                    if cls is not None:
                        self._record_edges(out, [cls], node)
                        out.add(cls)
                elif fn.attr in RELEASE_METHODS:
                    out.discard(self._class_of_expr(fn.value))
                elif fn.attr == "_release_locks":
                    out.clear()
                else:
                    for callee in self.project.resolve_call(sub, generators_only=False):
                        idx = callee.release_wrapper_param
                        if idx is not None and idx < len(sub.args):
                            out.discard(self._class_of_expr(sub.args[idx]))
        return frozenset(out)

    def _apply_delegation(self, call: ast.Call, held: FrozenSet[str],
                          node: CFGNode) -> Set[str]:
        """One ``yield from f(...)``: wrapper acquisition, callee summary
        edges, and the classes the callee hands back still held."""
        out: Set[str] = set()
        for callee in self.project.resolve_call(call):
            idx = callee.acquire_wrapper_param
            if idx is not None:
                if idx < len(call.args):
                    cls = self._class_of_expr(call.args[idx])
                    if cls is not None:
                        self._record_edges(held, [cls], node)
                        out.add(cls)
                continue
            self._record_edges(held, callee.acquired_classes, node)
            out |= callee.residual_classes
        return out


# ---------------------------------------------------------------------------
# RL104: stale membership view across a resume point
# ---------------------------------------------------------------------------
def _reads_view(expr: ast.expr) -> bool:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute) and sub.attr in _VIEW_ATTRS and \
                isinstance(sub.ctx, ast.Load):
            return True
        if isinstance(sub, ast.Call) and receiver_name(sub.func) in _VIEW_CALLS:
            return True
    return False


class _ViewAnalysis:
    """Captured-view dataflow: ``(var, status, capture_line)`` triples,
    status ``fresh`` -> ``stale`` at every suspension."""

    def __init__(self, info: FuncInfo, cfg: CFG, emit) -> None:
        self.info = info
        self.cfg = cfg
        self.emit = emit
        self._reported: Set[Tuple[str, int]] = set()

    def run(self) -> None:
        _forward(self.cfg, frozenset(), self.transfer, lambda a, b: a | b)

    def _check_loads(self, root: ast.AST,
                     state: Set[Tuple[str, str, int]],
                     skip: FrozenSet[int]) -> None:
        stale = {v: l for v, s, l in state if s == "stale"}
        for sub in ast.walk(root):
            if id(sub) in skip:
                continue
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and \
                    sub.id in stale:
                key = (sub.id, sub.lineno)
                if key not in self._reported:
                    self._reported.add(key)
                    self.emit(Finding(
                        self.info.path, sub.lineno, sub.col_offset, "RL104",
                        f"membership view captured into {sub.id!r} on line "
                        f"{stale[sub.id]} is used after a resume point — an "
                        f"epoch bump can interleave at any yield; re-read the "
                        f"view after resuming, or justify with "
                        f"'# reprolint: allow[RL104] why'",
                    ))

    def transfer(self, node: CFGNode, state: FrozenSet[Tuple[str, str, int]]):
        # Yield node: the operand is evaluated *before* suspending, so
        # check its loads against the pre-suspension state, then every
        # capture goes stale (any suspension can interleave an epoch bump,
        # including bounded CPU/timeout waits).
        if node.kind == "yield":
            if node.expr is not None and node.expr.value is not None:
                self._check_loads(node.expr.value, set(state), frozenset())
            return frozenset((v, "stale", l) for v, _s, l in state)
        stmt = node.stmt
        if stmt is None:
            return state
        out = set(state)
        # Loads inside yield operands were evaluated pre-suspension at the
        # yield node(s); only the rest of the statement runs at resume.
        skip: Set[int] = set()
        for y in stmt_yields(stmt):
            skip.add(id(y))
            if y.value is not None:
                skip.update(id(n) for n in ast.walk(y.value))
        self._check_loads(stmt, out, frozenset(skip))
        # (Re)bindings.
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    out = {(v, s, l) for v, s, l in out if v != tgt.id}
                    if _reads_view(stmt.value):
                        out.add((tgt.id, "fresh", stmt.lineno))
        return frozenset(out)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------
class FlowReport:
    """What one flow-analysis run produced (findings unsuppressed)."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.lock_graph: LockGraph = {}
        self.cycles: List[List[str]] = []


def _class_cycles(edges: Iterable[Tuple[str, str]]) -> List[List[str]]:
    """Elementary cycles of the class-level graph (incl. self-loops)."""
    adj: Dict[str, List[str]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    order = {n: i for i, n in enumerate(sorted(adj))}
    cycles: List[List[str]] = []
    seen: Set[Tuple[str, ...]] = set()
    for root in sorted(adj):
        stack: List[Tuple[str, Iterable[str]]] = [(root, iter(adj[root]))]
        path = [root]
        on_path = {root}
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt == root:
                    canon = tuple(path)
                    if canon not in seen:
                        seen.add(canon)
                        cycles.append(path[:])
                elif nxt not in on_path and order[nxt] > order[root]:
                    stack.append((nxt, iter(adj[nxt])))
                    path.append(nxt)
                    on_path.add(nxt)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())
    return cycles


def analyze_paths(paths: Iterable, restrict_to: Optional[Iterable] = None) -> FlowReport:
    """Run RL103/RL104 over the given files/directories.

    *restrict_to* limits **reported** findings to those files while the
    whole *paths* scope is still scanned for interprocedural facts (lock
    producers, acquire wrappers, callee summaries) — this is what makes
    ``repro lint --changed`` sound: a partial scan would lose the
    runtime's producers and mis-resolve every acquisition.
    """
    project = scan_project(paths)
    restrict: Optional[Set[str]] = None
    if restrict_to is not None:
        restrict = {Path(p).as_posix() for p in restrict_to}

    def reported(path: str) -> bool:
        return restrict is None or Path(path).as_posix() in restrict

    report = FlowReport()
    generators = [f for f in project.functions.values()
                  if f.is_generator and not _exempt(f.path)]
    cfgs = {info.qualname: build_cfg(info.node, info.name) for info in generators}

    # Lock summaries to a fixpoint: edges and residual-hold sets reach
    # through yield-from chains, and both only ever grow.
    changed = True
    while changed:
        changed = False
        for info in generators:
            analysis = _LockAnalysis(info, cfgs[info.qualname], project,
                                     report.lock_graph)
            analysis.run()
            if analysis.acquired != info.acquired_classes or \
                    analysis.residual != info.residual_classes:
                info.acquired_classes = analysis.acquired
                info.residual_classes = analysis.residual
                changed = True

    report.cycles = _class_cycles(report.lock_graph)
    for cyc in report.cycles:
        edges = zip(cyc, cyc[1:] + cyc[:1])
        weakest = min(edges, key=lambda e: (len(report.lock_graph[e]), e))
        chain = " -> ".join(cyc + cyc[:1])
        for path, line in sorted(report.lock_graph[weakest]):
            if reported(path):
                report.findings.append(Finding(
                    path, line, 0, "RL103",
                    f"static lock-order cycle: {chain} — this line acquires "
                    f"{weakest[1]} while {weakest[0]} is held, and two "
                    f"workflows can do so in opposite orders; name the "
                    f"instance-level order that holds here with "
                    f"'# reprolint: allow[RL103] <order>'",
                ))

    for info in generators:
        if reported(info.path) and any(
                _reads_view(n) for n in ast.walk(info.node)
                if isinstance(n, ast.expr)):
            _ViewAnalysis(info, cfgs[info.qualname], report.findings.append).run()
    return report


# ---------------------------------------------------------------------------
# dynamic cross-check
# ---------------------------------------------------------------------------
def _dynamic_class_edges(tracer) -> Set[Tuple[str, str]]:
    """SimTracer order edges lifted to lock-class level via the shared
    ``class:`` label prefix (``inode:s0:(...)`` -> ``inode``)."""
    return {(a.split(":", 1)[0], b.split(":", 1)[0]) for a, b in tracer.order_edges}


def cross_check_lock_orders(report: FlowReport, tracer) -> Dict[str, Any]:
    """Compare the static class graph against a SimTracer run.

    ``dynamic_only`` edges flag the *analysis* (a real acquisition chain
    static resolution missed); ``static_only`` edges flag *untested
    schedules* (paths no dynamic run has exercised yet).
    """
    dynamic = _dynamic_class_edges(tracer)
    static = set(report.lock_graph)
    return {
        "static_edges": sorted(static),
        "dynamic_edges": sorted(dynamic),
        "dynamic_only": sorted(dynamic - static),
        "static_only": sorted(static - dynamic),
        "sound": not (dynamic - static),
    }
