"""Per-function control-flow graphs over Python ``ast`` (stdlib only).

The flow analyses in :mod:`repro.analysis.flow` need one graph shape the
syntactic ``reprolint`` rules cannot express: *all paths through a
generator*, including the suspension points.  :func:`build_cfg` turns a
``FunctionDef`` into a statement-level CFG with

* one node per statement, in source order,
* explicit **yield nodes**: a statement containing ``yield``/
  ``yield from`` is split into a ``yield`` node (the suspension — the
  yield's operand is evaluated *before* suspending) followed by the
  statement node itself (the resume — bindings of the yielded-back value
  happen here), chained in source order when one statement holds several
  yields,
* ``while``/``for`` loops with their ``else`` arms (``false`` edge =
  condition falsified / iterator exhausted; ``break`` edges bypass the
  ``else``),
* ``try``/``except``/``else``/``finally`` with exception edges from
  raise-capable statements in the ``try`` body to every handler entry
  (and to the ``finally``), and abnormal exits (``return``/``break``/
  ``continue``/``raise``) routed *through* the enclosing ``finally``
  chain before reaching their target,
* ``with`` blocks modelled like ``try/finally``: a synthetic
  ``with-exit`` node through which both the normal fall-through and any
  early ``return`` pass (the ``__exit__`` call).

Soundness envelope (DESIGN.md §17): implicit exceptions get edges only
*inside* ``try`` bodies (where custody/cleanup code routes through
handlers); outside a ``try``, only explicit ``raise`` statements reach
the raise exit — so "leak on exception" findings under-approximate.
A ``finally`` body is built once and its exit fans out to every
continuation registered on it (normal, return, break, …), which merges
paths — an over-approximation that can only add findings, never hide a
path that exists.

Nested ``def``/``lambda`` bodies are opaque single statements (they get
their own CFGs); comprehensions are expressions of their enclosing
statement (``yield`` inside a comprehension is a syntax error on the
Pythons we support, so no suspension hides there).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["CFG", "CFGNode", "build_cfg", "stmt_yields"]

# Special line numbers used by edge_lines() for the synthetic nodes, so
# tests can hand-draw edge lists without tracking node indices.
ENTRY_LINE = 0
EXIT_LINE = -1
RAISE_LINE = -2


class CFGNode:
    """One CFG node: a statement, a yield point, or a synthetic marker."""

    __slots__ = ("idx", "kind", "stmt", "expr", "lineno", "label")

    def __init__(self, idx: int, kind: str, lineno: int, label: str,
                 stmt: Optional[ast.stmt] = None, expr: Optional[ast.expr] = None):
        self.idx = idx
        #: "entry" | "exit" | "raise" | "stmt" | "yield" | "with-exit"
        self.kind = kind
        self.stmt = stmt
        #: For ``yield`` nodes: the Yield/YieldFrom expression.
        self.expr = expr
        self.lineno = lineno
        self.label = label

    def __repr__(self) -> str:
        return f"CFGNode({self.idx}, {self.kind!r}, L{self.lineno}, {self.label!r})"


class CFG:
    """Statement-level CFG for one function (or generator)."""

    def __init__(self, name: str, func: ast.AST):
        self.name = name
        self.func = func
        self.nodes: List[CFGNode] = []
        #: idx -> [(succ idx, edge kind)]; kinds: next/true/false/loop/
        #: break/continue/except/resume/return/raise/finally
        self.succs: Dict[int, List[Tuple[int, str]]] = {}
        self.entry = self._add("entry", getattr(func, "lineno", 0), "<entry>")
        self.exit = self._add("exit", EXIT_LINE, "<exit>")
        self.raise_exit = self._add("raise", RAISE_LINE, "<raise>")

    # -- construction ----------------------------------------------------
    def _add(self, kind: str, lineno: int, label: str,
             stmt: Optional[ast.stmt] = None, expr: Optional[ast.expr] = None) -> int:
        idx = len(self.nodes)
        self.nodes.append(CFGNode(idx, kind, lineno, label, stmt, expr))
        self.succs[idx] = []
        return idx

    def _edge(self, src: int, dst: int, kind: str) -> None:
        pair = (dst, kind)
        if pair not in self.succs[src]:
            self.succs[src].append(pair)

    # -- read API --------------------------------------------------------
    def node(self, idx: int) -> CFGNode:
        return self.nodes[idx]

    def yield_nodes(self) -> List[CFGNode]:
        return [n for n in self.nodes if n.kind == "yield"]

    def edge_lines(self) -> Set[Tuple[int, int, str]]:
        """Edges as ``(src_line, dst_line, kind)`` triples.

        Entry/exit/raise use the sentinels ``ENTRY_LINE``/``EXIT_LINE``/
        ``RAISE_LINE`` so tests can assert hand-drawn edge lists by line
        number alone.  The entry node reports line 0 regardless of where
        the ``def`` sits.
        """
        def line(n: CFGNode) -> int:
            if n.kind == "entry":
                return ENTRY_LINE
            return n.lineno

        out: Set[Tuple[int, int, str]] = set()
        for src, edges in self.succs.items():
            for dst, kind in edges:
                out.add((line(self.nodes[src]), line(self.nodes[dst]), kind))
        return out

    def __repr__(self) -> str:
        return f"CFG({self.name!r}, {len(self.nodes)} nodes)"


def stmt_yields(stmt: ast.stmt) -> List[ast.expr]:
    """Yield/YieldFrom expressions of *stmt*, in evaluation order,
    excluding any inside nested ``def``/``lambda`` bodies."""
    out: List[ast.expr] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                out.append(child)
                # A yield's operand may itself contain a yield; keep walking.
            walk(child)

    walk(stmt)
    return out


def _can_raise(stmt: ast.stmt) -> bool:
    """Raise-capable approximation: explicit raises, asserts, and any
    statement containing a call (exception edges are only materialised
    inside ``try`` bodies; see module docstring)."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            return True
    return False


_LABEL_WIDTH = 48


def _label(stmt: ast.AST) -> str:
    try:
        text = ast.unparse(stmt).split("\n", 1)[0]
    except Exception:  # pragma: no cover - unparse failure on exotic nodes
        text = type(stmt).__name__
    if len(text) > _LABEL_WIDTH:
        text = text[: _LABEL_WIDTH - 3] + "..."
    return text


class _FinallyFrame:
    """One enclosing ``finally`` (or ``with`` exit) the builder must route
    abnormal exits through."""

    __slots__ = ("entry", "exits", "continuations", "loop_depth")

    def __init__(self, entry: int, exits: List[Tuple[int, str]], loop_depth: int):
        self.entry = entry
        #: dangling (node, kind) edges of the finally body
        self.exits = exits
        #: node indices the finally exit must additionally connect to
        self.continuations: Set[int] = set()
        #: loop nesting depth at frame creation (break/continue routing)
        self.loop_depth = loop_depth


class _Loop:
    __slots__ = ("continue_target", "break_sinks")

    def __init__(self, continue_target: int):
        self.continue_target = continue_target
        self.break_sinks: List[Tuple[int, str]] = []


Frontier = List[Tuple[int, str]]


class _Builder:
    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.loops: List[_Loop] = []
        self.finallies: List[_FinallyFrame] = []
        #: handler-entry targets for raise-capable statements (innermost try)
        self.exc_targets: List[List[int]] = []

    # -- plumbing --------------------------------------------------------
    def connect(self, frontier: Frontier, dst: int) -> None:
        for src, kind in frontier:
            self.cfg._edge(src, dst, kind)

    def _exc_edges(self, node: int) -> None:
        if self.exc_targets:
            for target in self.exc_targets[-1]:
                self.cfg._edge(node, target, "except")

    def _route_abnormal(self, node: int, target: int, kind: str,
                        through: List[_FinallyFrame]) -> None:
        """Route an abnormal jump through the given finally frames
        (innermost first), then to *target*."""
        if not through:
            self.cfg._edge(node, target, kind)
            return
        self.cfg._edge(node, through[0].entry, kind)
        for frame, nxt in zip(through, through[1:]):
            frame.continuations.add(nxt.entry)
        through[-1].continuations.add(target)

    # -- statement sequencing --------------------------------------------
    def stmts(self, body: List[ast.stmt], frontier: Frontier) -> Frontier:
        for stmt in body:
            frontier = self.stmt(stmt, frontier)
        return frontier

    def _chain_yields(self, stmt: ast.stmt, frontier: Frontier) -> Frontier:
        """Emit yield nodes for every suspension inside *stmt*."""
        for y in stmt_yields(stmt):
            ynode = self.cfg._add(
                "yield", getattr(y, "lineno", stmt.lineno), _label(y), stmt, y
            )
            self.connect(frontier, ynode)
            frontier = [(ynode, "resume")]
        return frontier

    def _plain(self, stmt: ast.stmt, frontier: Frontier) -> Frontier:
        frontier = self._chain_yields(stmt, frontier)
        node = self.cfg._add("stmt", stmt.lineno, _label(stmt), stmt)
        self.connect(frontier, node)
        if _can_raise(stmt):
            self._exc_edges(node)
        return [(node, "next")]

    # -- dispatch --------------------------------------------------------
    def stmt(self, stmt: ast.stmt, frontier: Frontier) -> Frontier:
        if not frontier:
            return []  # unreachable code after return/raise/break
        method = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if method is not None:
            return method(stmt, frontier)
        return self._plain(stmt, frontier)

    def _stmt_If(self, stmt: ast.If, frontier: Frontier) -> Frontier:
        cond = self.cfg._add("stmt", stmt.lineno, f"if {_label(stmt.test)}", stmt)
        self.connect(frontier, cond)
        if _can_raise_expr(stmt.test):
            self._exc_edges(cond)
        then_out = self.stmts(stmt.body, [(cond, "true")])
        else_out = self.stmts(stmt.orelse, [(cond, "false")])
        return then_out + else_out

    def _stmt_While(self, stmt: ast.While, frontier: Frontier) -> Frontier:
        cond = self.cfg._add("stmt", stmt.lineno, f"while {_label(stmt.test)}", stmt)
        self.connect(frontier, cond)
        loop = _Loop(cond)
        self.loops.append(loop)
        body_out = self.stmts(stmt.body, [(cond, "true")])
        for src, _ in body_out:
            self.cfg._edge(src, cond, "loop")
        self.loops.pop()
        out: Frontier = []
        infinite = isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        if not infinite:
            # The else arm runs when the condition falsifies — never on break.
            out = self.stmts(stmt.orelse, [(cond, "false")])
        return out + loop.break_sinks

    def _stmt_For(self, stmt: ast.For, frontier: Frontier) -> Frontier:
        frontier = self._chain_yields_expr(stmt.iter, stmt, frontier)
        head = self.cfg._add(
            "stmt", stmt.lineno,
            f"for {_label(stmt.target)} in {_label(stmt.iter)}", stmt,
        )
        self.connect(frontier, head)
        if _can_raise_expr(stmt.iter):
            self._exc_edges(head)
        loop = _Loop(head)
        self.loops.append(loop)
        body_out = self.stmts(stmt.body, [(head, "true")])
        for src, _ in body_out:
            self.cfg._edge(src, head, "loop")
        self.loops.pop()
        out = self.stmts(stmt.orelse, [(head, "false")])
        return out + loop.break_sinks

    def _chain_yields_expr(self, expr: ast.expr, stmt: ast.stmt,
                           frontier: Frontier) -> Frontier:
        fake = ast.Expr(value=expr)
        fake.lineno = stmt.lineno
        return self._chain_yields(fake, frontier)

    def _stmt_Return(self, stmt: ast.Return, frontier: Frontier) -> Frontier:
        frontier = self._chain_yields(stmt, frontier)
        node = self.cfg._add("stmt", stmt.lineno, _label(stmt), stmt)
        self.connect(frontier, node)
        if _can_raise(stmt):
            self._exc_edges(node)
        self._route_abnormal(node, self.cfg.exit, "return",
                             list(reversed(self.finallies)))
        return []

    def _stmt_Raise(self, stmt: ast.Raise, frontier: Frontier) -> Frontier:
        frontier = self._chain_yields(stmt, frontier)
        node = self.cfg._add("stmt", stmt.lineno, _label(stmt), stmt)
        self.connect(frontier, node)
        # Inside a try body the except edges route to the handlers; the
        # raise must *also* escape through the finally chain for the
        # no-matching-handler case.
        self._exc_edges(node)
        self._route_abnormal(node, self.cfg.raise_exit, "raise",
                             list(reversed(self.finallies)))
        return []

    def _stmt_Break(self, stmt: ast.Break, frontier: Frontier) -> Frontier:
        node = self.cfg._add("stmt", stmt.lineno, "break", stmt)
        self.connect(frontier, node)
        loop = self.loops[-1]
        through = [f for f in reversed(self.finallies)
                   if f.loop_depth >= len(self.loops)]
        if through:
            self.cfg._edge(node, through[0].entry, "break")
            for frame, nxt in zip(through, through[1:]):
                frame.continuations.add(nxt.entry)
            # The outermost traversed finally's dangling exits become the
            # loop's break frontier (its body is already built — finally
            # bodies are constructed before the try body they guard).
            loop.break_sinks.extend(
                (src, "break") for src, _ in through[-1].exits
            )
        else:
            loop.break_sinks.append((node, "break"))
        return []

    def _stmt_Continue(self, stmt: ast.Continue, frontier: Frontier) -> Frontier:
        node = self.cfg._add("stmt", stmt.lineno, "continue", stmt)
        self.connect(frontier, node)
        loop = self.loops[-1]
        through = [f for f in reversed(self.finallies)
                   if f.loop_depth >= len(self.loops)]
        self._route_abnormal(node, loop.continue_target, "continue", through)
        return []

    def _stmt_With(self, stmt: ast.With, frontier: Frontier) -> Frontier:
        for item in stmt.items:
            frontier = self._chain_yields_expr(item.context_expr, stmt, frontier)
        head = self.cfg._add(
            "stmt", stmt.lineno,
            "with " + ", ".join(_label(i.context_expr) for i in stmt.items), stmt,
        )
        self.connect(frontier, head)
        if any(_can_raise_expr(i.context_expr) for i in stmt.items):
            self._exc_edges(head)
        # Model __exit__ as a finally: early returns route through it.
        wexit = self.cfg._add("with-exit", stmt.lineno, "<with-exit>", stmt)
        frame = _FinallyFrame(wexit, [(wexit, "next")], len(self.loops))
        self.finallies.append(frame)
        body_out = self.stmts(stmt.body, [(head, "next")])
        self.finallies.pop()
        self.connect(body_out, wexit)
        for target in frame.continuations:
            self.cfg._edge(wexit, target, "finally")
        return [(wexit, "next")] if body_out else []

    def _stmt_Try(self, stmt: ast.Try, frontier: Frontier) -> Frontier:
        cfg = self.cfg
        fin_frame: Optional[_FinallyFrame] = None
        if stmt.finalbody:
            # Build the finally body first (its nodes exist before the try
            # body's so exception routing has a concrete entry to target);
            # edges into it are added as abnormal exits are discovered.
            first = stmt.finalbody[0]
            # Anchor node so the frame has a single entry even when the
            # finally body starts with a compound statement.  Exceptions
            # raised *inside* the finally target the outer try's handlers
            # (this try's frame is not yet on exc_targets here).
            anchor = cfg._add("stmt", first.lineno, "<finally>", first)
            fin_out = self.stmts(stmt.finalbody, [(anchor, "next")])
            fin_frame = _FinallyFrame(anchor, fin_out, len(self.loops))

        handler_entries: List[int] = []
        for handler in stmt.handlers:
            clause = "except" if handler.type is None else \
                f"except {_label(handler.type)}"
            handler_entries.append(
                cfg._add("stmt", handler.lineno, clause, handler)
            )

        targets = handler_entries[:]
        if fin_frame is not None:
            # No handler may match: the exception runs the finally then
            # keeps propagating.
            targets.append(fin_frame.entry)
            self._route_abnormal_from_frame(fin_frame)

        if fin_frame is not None:
            self.finallies.append(fin_frame)
        self.exc_targets.append(targets)
        body_out = self.stmts(stmt.body, frontier)
        self.exc_targets.pop()

        # try/else runs only after a clean body; this try's handlers do
        # not cover it.
        else_out = self.stmts(stmt.orelse, body_out) if stmt.orelse else body_out

        handler_outs: Frontier = []
        for handler, entry in zip(stmt.handlers, handler_entries):
            handler_outs += self.stmts(handler.body, [(entry, "next")])

        normal = else_out + handler_outs
        if fin_frame is None:
            return normal
        self.finallies.pop()
        self.connect(normal, fin_frame.entry)
        out: Frontier = []
        for src, kind in fin_frame.exits:
            for target in fin_frame.continuations:
                cfg._edge(src, target, "finally")
            if normal:
                out.append((src, kind))
        return out

    def _route_abnormal_from_frame(self, frame: _FinallyFrame) -> None:
        """An unhandled exception that entered *frame* continues through
        the outer finally chain to the raise exit."""
        outer = list(reversed(self.finallies))
        if outer:
            frame.continuations.add(outer[0].entry)
            for f, nxt in zip(outer, outer[1:]):
                f.continuations.add(nxt.entry)
            outer[-1].continuations.add(self.cfg.raise_exit)
        else:
            frame.continuations.add(self.cfg.raise_exit)

    # Nested definitions are opaque statements with their own CFGs.
    def _stmt_FunctionDef(self, stmt: ast.stmt, frontier: Frontier) -> Frontier:
        node = self.cfg._add("stmt", stmt.lineno, f"def {stmt.name}", stmt)
        self.connect(frontier, node)
        return [(node, "next")]

    _stmt_AsyncFunctionDef = _stmt_FunctionDef

    def _stmt_ClassDef(self, stmt: ast.ClassDef, frontier: Frontier) -> Frontier:
        node = self.cfg._add("stmt", stmt.lineno, f"class {stmt.name}", stmt)
        self.connect(frontier, node)
        return [(node, "next")]


def _can_raise_expr(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            return True
    return False


def build_cfg(func: ast.AST, name: Optional[str] = None) -> CFG:
    """Build the CFG for one ``FunctionDef``/``AsyncFunctionDef``."""
    cfg = CFG(name or getattr(func, "name", "<lambda>"), func)
    builder = _Builder(cfg)
    out = builder.stmts(func.body, [(cfg.entry, "next")])
    builder.connect(out, cfg.exit)
    return cfg
