"""Flow-sensitive static analyses over generator-aware CFGs (DESIGN.md §17).

Three rules, all path-sensitive — the static complement of the *dynamic*
detectors in :mod:`repro.analysis.trace`/:mod:`~repro.analysis.detect`
(which certify only the schedules that actually ran) and of the
*syntactic* ``reprolint`` rules (which see one suite at a time):

RL102 ``lock-across-yield``
    An orderable lock (the classes SimTracer labels: ``inode``,
    ``changelog``, ``rename-serial``) provably held over a ``yield``
    that can block **unboundedly on simulated time** — a bare event or
    an RPC completion, directly or through ``yield from`` delegation
    (wait-kind fixpoint over the call graph).  Bounded waits (CPU-core
    pools, ``sim.timeout``) and lock-acquire waits (RL103's domain) are
    not reported.

RL103 ``lock-order-cycle``
    The whole-program static acquisition graph at lock-*class* level
    ("held A while acquiring B" on any path, interprocedurally through
    ``yield from``), with every elementary cycle reported.  The graph is
    exported as JSON and cross-checked against SimTracer's dynamic
    first-witness graph: a dynamic edge the static graph misses flags
    the *analysis* (unsound resolution), a static cycle never seen
    dynamically flags an *untested schedule*.

RL104 ``stale-view-across-yield``
    A captured ``MembershipView``/epoch value (an expression reading
    ``.view``/``._view``/``.current`` or calling ``view_epoch``) used
    after a resume point without being re-read.  Any suspension can
    interleave a membership epoch bump, so a pre-yield capture may route
    to a pre-migration owner.

Suppression uses the same ``# reprolint: allow[rule] why`` comments as
the syntactic lint, on the reported line.  Findings carry line-free
**fingerprints** (rule + file + function + symbol + sink) so a committed
baseline (:func:`load_baseline`/:func:`new_findings`) fails CI only on
*new* findings while the justified backlog ages out.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .callgraph import (
    RELEASE_METHODS,
    FuncInfo,
    Project,
    classify_yield_value,
    receiver_name,
    scan_project,
)
from .cfg import CFG, CFGNode, build_cfg, stmt_yields
from .reprolint import _ALLOW_RE, _comment_tokens

__all__ = [
    "FLOW_RULES",
    "FlowFinding",
    "FlowReport",
    "analyze_paths",
    "format_flow_finding",
    "load_baseline",
    "write_baseline",
    "new_findings",
    "to_sarif",
    "lock_graph_json",
    "cross_check_lock_orders",
]

FLOW_RULES = {
    "RL102": "lock-across-yield",
    "RL103": "lock-order-cycle",
    "RL104": "stale-view-across-yield",
    "RL007": "dead-suppression",
}
_NAME_TO_ID = {v: k for k, v in FLOW_RULES.items()}

# Files whose *implementation* is the thing being modelled: analysing the
# lock primitives as their own clients is meaningless.
_EXEMPT_PARTS = {"tests", "benchmarks"}
_EXEMPT_SUFFIXES = ("sim/kernel.py", "sim/resources.py")
_EXEMPT_DIR_SUFFIXES = ("analysis",)

_VIEW_ATTRS = {"view", "_view", "current"}
_VIEW_CALLS = {"view_epoch"}


class FlowFinding:
    """One flow-analysis finding with a line-free baseline fingerprint."""

    __slots__ = ("path", "line", "col", "rule", "name", "message",
                 "function", "symbol", "sink")

    def __init__(self, path: str, line: int, col: int, rule: str,
                 message: str, function: str, symbol: str, sink: str):
        self.path = path
        self.line = line
        self.col = col
        self.rule = rule
        self.name = FLOW_RULES[rule]
        self.message = message
        self.function = function
        self.symbol = symbol
        self.sink = sink

    @property
    def fingerprint(self) -> str:
        return (f"{self.rule}:{_fp_path(self.path)}:{self.function}:"
                f"{self.symbol}:{self.sink}")

    def __repr__(self) -> str:
        return f"FlowFinding({format_flow_finding(self)!r})"


def format_flow_finding(f: FlowFinding) -> str:
    return f"{f.path}:{f.line}:{f.col}: {f.rule}[{f.name}] {f.message}"


def _fp_path(path: str) -> str:
    """Stable fingerprint path: from the ``repro/`` package root when the
    file lives under one, else the bare filename (temp dirs in tests)."""
    posix = Path(path).as_posix()
    marker = "/repro/"
    i = posix.rfind(marker)
    if i >= 0:
        return posix[i + 1:]
    return posix.rsplit("/", 1)[-1]


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
# RL102 + RL103: lock dataflow
# ---------------------------------------------------------------------------
def _lockvar_classes(info: FuncInfo, project: Project) -> Dict[str, str]:
    """Flow-insensitive map: local name -> lock class it can hold.

    Covers direct producer calls (``klock = self._inode_lock(key)``),
    one-level aliases, list/comprehension element classes, ``for``
    targets iterating such lists, and the list a delegate hands back
    still locked (``locks = yield from self._take_group(fp)``: elements
    of the callee's residual class).
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
        if isinstance(expr, ast.YieldFrom) and isinstance(expr.value, ast.Call):
            for callee in project.resolve_call(expr.value):
                if callee.residual_classes:
                    return min(callee.residual_classes)
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

    Produces RL102 findings, RL103 graph edges, and the function's
    ``acquired_classes``/``residual_classes`` summaries (driven to a
    fixpoint across the project by :func:`analyze_paths`).
    """

    def __init__(self, info: FuncInfo, cfg: CFG, project: Project,
                 graph: Dict[Tuple[str, str], Dict[str, Any]],
                 emit) -> None:
        self.info = info
        self.cfg = cfg
        self.project = project
        self.graph = graph
        self.emit = emit
        self.lockvars = _lockvar_classes(info, project)
        self.acquired: Set[str] = set()
        self.residual: Set[str] = set()
        self._reported_lines: Set[int] = set()

    # -- helpers ---------------------------------------------------------
    def _class_of_expr(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self.lockvars.get(expr.id)
        if isinstance(expr, ast.Call):
            return self.project.producer_class_of_call(expr)
        if isinstance(expr, ast.Attribute):
            # self._rename_serial and friends: resolve via producer names.
            return None
        return None

    def _record_edges(self, held: FrozenSet[str], acquired: Iterable[str],
                      node: CFGNode) -> None:
        for cls in acquired:
            self.acquired.add(cls)
            for h in held:
                edge = (h, cls)
                if edge not in self.graph:
                    self.graph[edge] = {
                        "file": self.info.path,
                        "line": node.lineno,
                        "function": self.info.name,
                    }

    def _report_rl102(self, node: CFGNode, held: FrozenSet[str],
                      waits_on: str) -> None:
        if node.lineno in self._reported_lines:
            return
        self._reported_lines.add(node.lineno)
        classes = ",".join(sorted(held))
        self.emit(FlowFinding(
            self.info.path, node.lineno, 0, "RL102",
            f"lock(s) [{classes}] held across a yield that can block "
            f"unboundedly on sim time ({waits_on}) — a wedged peer wedges "
            f"this lock's critical section; release first, or justify the "
            f"design with '# reprolint: allow[RL102] why'",
            self.info.name, classes, f"yield:{waits_on}",
        ))

    # -- dataflow --------------------------------------------------------
    def run(self) -> None:
        states = _forward(self.cfg, frozenset(), self.transfer,
                         lambda a, b: a | b)
        exit_state = states.get(self.cfg.exit)
        raise_state = states.get(self.cfg.raise_exit)
        residual: Set[str] = set()
        for st in (exit_state, raise_state):
            if st:
                residual |= set(st)
        self.residual = residual

    def transfer(self, node: CFGNode, held: FrozenSet[str]) -> FrozenSet[str]:
        out = set(held)
        stmt = node.stmt
        if node.kind == "yield" and node.expr is not None:
            expr = node.expr
            if isinstance(expr, ast.YieldFrom):
                call = expr.value if isinstance(expr.value, ast.Call) else None
                if call is not None:
                    out |= self._apply_delegation(call, frozenset(out), node)
                elif out:
                    self._report_rl102(node, frozenset(out), "delegation")
            else:
                kind, call = classify_yield_value(expr.value, self.project.hold_producers)
                if kind == "lock" and call is not None:
                    cls = self._class_of_expr(call.func.value)
                    if cls is not None:
                        self._record_edges(frozenset(out), [cls], node)
                        out.add(cls)
                elif kind == "event" and out:
                    self._report_rl102(node, frozenset(out), "event wait")
            return frozenset(out)
        if stmt is None:
            return frozenset(out)
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            fn = sub.func
            if isinstance(fn, ast.Attribute):
                if fn.attr in {"try_acquire_read", "try_acquire_write",
                               "try_acquire"}:
                    cls = self._class_of_expr(fn.value)
                    if cls is not None:
                        self._record_edges(frozenset(out), [cls], node)
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
        edges, residual holds, and RL102 when the callee event-waits."""
        out: Set[str] = set()
        callees = self.project.resolve_call(call)
        wrapper_handled = False
        for callee in callees:
            if callee.acquire_wrapper_param is not None:
                idx = callee.acquire_wrapper_param
                if idx < len(call.args):
                    cls = self._class_of_expr(call.args[idx])
                    if cls is not None:
                        self._record_edges(held, [cls], node)
                        out.add(cls)
                        wrapper_handled = True
                continue
            if callee.acquired_classes:
                self._record_edges(held, callee.acquired_classes, node)
                self.acquired |= callee.acquired_classes
            if callee.residual_classes:
                out |= callee.residual_classes
            if held and "event" in callee.wait_kinds:
                self._report_rl102(node, held, f"yield from {callee.name}()")
        if not callees and held and not wrapper_handled:
            # Unresolved delegation: assume it can event-wait.
            self._report_rl102(node, held, "unresolved delegation")
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
                    self.emit(FlowFinding(
                        self.info.path, sub.lineno, sub.col_offset, "RL104",
                        f"membership view captured into {sub.id!r} on line "
                        f"{stale[sub.id]} is used after a resume point — an "
                        f"epoch bump can interleave at any yield; re-read the "
                        f"view after resuming, or justify with "
                        f"'# reprolint: allow[RL104] why'",
                        self.info.name, sub.id, "stale-use",
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
    """Everything one analysis run produced."""

    def __init__(self) -> None:
        self.findings: List[FlowFinding] = []
        #: (held_class, acquired_class) -> first witness
        self.lock_graph: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.cycles: List[List[str]] = []
        #: the files findings were reported on (``restrict_to`` applied)
        self.files: List[str] = []
        self.functions_analyzed: int = 0

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out


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


def _allow_rules_on_line(text: str) -> Optional[Set[str]]:
    m = _ALLOW_RE.search(text)
    if m is None:
        return None
    out: Set[str] = set()
    for token in m.group(1).split(","):
        token = token.strip()
        if token == "*":
            out.update(FLOW_RULES)
        elif token in FLOW_RULES:
            out.add(token)
        elif token in _NAME_TO_ID:
            out.add(_NAME_TO_ID[token])
    return out


def analyze_paths(paths: Iterable, project: Optional[Project] = None,
                  restrict_to: Optional[Iterable] = None) -> FlowReport:
    """Run RL102/RL103/RL104 over the given files/directories.

    *restrict_to* limits **reported** findings to those files while the
    whole *paths* scope is still scanned for interprocedural facts (lock
    producers, acquire wrappers, callee summaries) — this is what makes
    ``repro flow --changed`` sound: a partial scan would lose the
    runtime's producers and mis-resolve every acquisition.
    """
    if project is None:
        project = scan_project(paths)
    restrict: Optional[Set[str]] = None
    if restrict_to is not None:
        restrict = {Path(p).as_posix() for p in restrict_to}
    report = FlowReport()
    raw: List[FlowFinding] = []
    emit = raw.append

    def reported(path: str) -> bool:
        return restrict is None or Path(path).as_posix() in restrict

    # Group functions per file, skipping exempt paths wholesale.
    infos = [f for f in project.functions.values()
             if not _exempt(f.path)]
    cfgs: Dict[str, CFG] = {}

    def cfg_of(info: FuncInfo) -> CFG:
        cfg = cfgs.get(info.qualname)
        if cfg is None:
            cfg = build_cfg(info.node, info.name)
            cfgs[info.qualname] = cfg
        return cfg

    # Lock summaries to a fixpoint: RL103 edges and residual-hold sets
    # reach through yield-from chains, so iterate until stable, then one
    # final emitting pass.
    lock_infos = [f for f in infos if f.is_generator]
    for _round in range(6):
        changed = False
        for info in lock_infos:
            analysis = _LockAnalysis(info, cfg_of(info), project,
                                     report.lock_graph, lambda f: None)
            analysis.run()
            if analysis.acquired != info.acquired_classes or \
                    analysis.residual != info.residual_classes:
                info.acquired_classes = analysis.acquired
                info.residual_classes = analysis.residual
                changed = True
        if not changed:
            break
    for info in lock_infos:
        analysis = _LockAnalysis(info, cfg_of(info), project,
                                 report.lock_graph,
                                 emit if reported(info.path) else lambda f: None)
        analysis.run()
        report.functions_analyzed += 1

    for info in infos:
        if not reported(info.path):
            continue
        if info.is_generator and any(_reads_view(n) for n in ast.walk(info.node)
                                     if isinstance(n, ast.expr)):
            _ViewAnalysis(info, cfg_of(info), emit).run()

    # Cycles over the class graph.
    report.cycles = _class_cycles(report.lock_graph.keys())
    for cyc in report.cycles:
        witness = report.lock_graph[(cyc[0], cyc[(1) % len(cyc)] if len(cyc) > 1 else cyc[0])]
        if not reported(witness["file"]):
            continue
        chain = " -> ".join(cyc + [cyc[0]])
        raw.append(FlowFinding(
            witness["file"], witness["line"], 0, "RL103",
            f"static lock-order cycle: {chain} — two workflows can acquire "
            f"these lock classes in opposite orders; if the ordering is "
            f"protocol-protected, baseline this finding with the "
            f"justification in flow-baseline.json",
            witness["function"], chain, "cycle",
        ))

    # Suppression filtering + dead-suppression audit, per file.
    files = sorted({f.path for f in infos if reported(f.path)})
    report.files = files
    lines_cache: Dict[str, List[str]] = {}

    def source_lines(path: str) -> List[str]:
        cached = lines_cache.get(path)
        if cached is None:
            try:
                cached = Path(path).read_text(encoding="utf-8").splitlines()
            except OSError:
                cached = []
            lines_cache[path] = cached
        return cached

    survivors: List[FlowFinding] = []
    suppressed_at: Dict[Tuple[str, int], Set[str]] = {}
    for f in raw:
        lines = source_lines(f.path)
        text = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        allowed = _allow_rules_on_line(text)
        if allowed is not None and f.rule in allowed:
            suppressed_at.setdefault((f.path, f.line), set()).add(f.rule)
            continue
        survivors.append(f)

    flow_ids = set(FLOW_RULES) - {"RL007"}
    for path in files:
        source = "\n".join(source_lines(path))
        for lineno, col, text in _comment_tokens(source):
            m = _ALLOW_RE.search(text)
            if m and "*" in {t.strip() for t in m.group(1).split(",")}:
                continue  # blanket allows are not audited
            allowed = _allow_rules_on_line(text)
            if not allowed:
                continue
            auditable = allowed & flow_ids
            if not auditable:
                continue
            used = suppressed_at.get((path, lineno), set())
            dead = sorted(auditable - used)
            if dead:
                survivors.append(FlowFinding(
                    path, lineno, col, "RL007",
                    f"suppression allow[{','.join(dead)}] no longer matches "
                    f"a finding on this line — delete the dead allow comment",
                    "<module>", ",".join(dead), "dead",
                ))

    survivors.sort(key=lambda f: (f.path, f.line, f.rule))
    report.findings = survivors
    return report


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------
def load_baseline(path) -> Dict[str, int]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return dict(data.get("fingerprints", {}))


def write_baseline(path, report: FlowReport) -> None:
    fps: Dict[str, int] = {}
    for f in report.findings:
        fps[f.fingerprint] = fps.get(f.fingerprint, 0) + 1
    data = {
        "version": 1,
        "comment": "committed flow-analysis baseline: CI fails only on "
                   "findings not fingerprinted here (repro flow --baseline)",
        "fingerprints": dict(sorted(fps.items())),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def new_findings(report: FlowReport, baseline: Dict[str, int]) -> List[FlowFinding]:
    """Findings exceeding the baselined count for their fingerprint, then
    one RL007 per baseline entry whose count (or a part of it) excuses
    nothing any more — judged only for files this run reported on, so a
    ``--changed`` run says nothing about entries for files it skipped."""
    budget = dict(baseline)
    out: List[FlowFinding] = []
    for f in report.findings:
        fp = f.fingerprint
        if budget.get(fp, 0) > 0:
            budget[fp] -= 1
        else:
            out.append(f)
    reported = {_fp_path(path) for path in report.files}
    for fp, unused in sorted(budget.items()):
        parts = fp.split(":")  # rule:path:function:symbol:sink
        if unused > 0 and len(parts) > 2 and parts[1] in reported:
            out.append(FlowFinding(
                parts[1], 0, 0, "RL007",
                f"baseline entry {fp!r} excuses {unused} finding(s) this run "
                f"no longer reports — delete it from the baseline (or "
                f"regenerate the file with --write-baseline)",
                parts[2], fp, "unused-baseline",
            ))
    return out


# ---------------------------------------------------------------------------
# exports: SARIF + lock-graph JSON + dynamic cross-check
# ---------------------------------------------------------------------------
def to_sarif(report: FlowReport, findings: Optional[Sequence[FlowFinding]] = None) -> Dict[str, Any]:
    """Minimal SARIF 2.1.0 document (GitHub code-scanning compatible)."""
    if findings is None:
        findings = report.findings
    rules = [
        {
            "id": rule,
            "name": name,
            "shortDescription": {"text": name},
        }
        for rule, name in sorted(FLOW_RULES.items())
    ]
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "partialFingerprints": {"reproFlow/v1": f.fingerprint},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": Path(f.path).as_posix()},
                        "region": {"startLine": max(1, f.line),
                                   "startColumn": max(1, f.col + 1)},
                    }
                }
            ],
        }
        for f in findings
    ]
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-flow",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def lock_graph_json(report: FlowReport) -> Dict[str, Any]:
    return {
        "edges": [
            {"from": a, "to": b, **witness}
            for (a, b), witness in sorted(report.lock_graph.items())
        ],
        "cycles": report.cycles,
    }


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
    static = set(report.lock_graph.keys())
    return {
        "static_edges": sorted(static),
        "dynamic_edges": sorted(dynamic),
        "dynamic_only": sorted(dynamic - static),
        "static_only": sorted(static - dynamic),
        "sound": not (dynamic - static),
    }
