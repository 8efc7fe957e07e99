"""``reprolint``: the repo-specific lint and its one rule driver (stdlib
``ast`` only).

:func:`lint_paths` runs every rule below over each file and puts the
union of their findings through one suppression pass and one
dead-suppression audit.  ``repro lint`` and the tier-1 "repo is clean"
test call it; nothing else excuses a finding.

Rules (DESIGN.md §12.3):

RL001 ``wall-clock``
    No calls into the ``time``/``random`` stdlib modules (or
    ``datetime.now/utcnow/today``) in sim-visible code.  Simulated time
    comes from ``sim.now``; randomness from the seeded streams in
    ``sim/rand.py`` — wall-clock or global-RNG calls silently break
    run-to-run determinism.  Benchmark harnesses (``bench``/
    ``benchmarks`` path segments), this analysis layer, and
    ``sim/rand.py`` itself are exempt.

RL002 ``private-access``
    No cross-module ``obj._private`` attribute access.  An attribute
    starting with a single underscore may only be touched through
    ``self``/``cls`` or from a module that itself defines that private
    name (the PR-4 ``_ids`` bug class).  Add a small public accessor —
    or, for a documented hot-path exception, a same-line
    ``# reprolint: allow[private-access] why`` comment.

RL003 ``bare-except``
    No ``except:`` and no ``except BaseException`` that swallows the
    exception (no re-raise and the bound name unused): both eat
    ``GeneratorExit`` and ``KeyboardInterrupt``, wedging process cleanup.

RL004 ``unadopted-generator``
    A bare expression statement calling a same-module generator function
    creates a generator object and drops it — the code inside never
    runs.  Drive it (``yield from``), hand it to ``sim.spawn``/
    ``sim.adopt``, or delete it.

RL006 ``slotless-hot-class``
    Classes defined in hot-path modules (``core/server``, ``net``, the
    sim kernel/resources) must declare ``__slots__``: their instances
    are allocated on the per-op path, and a ``__dict__`` per instance
    costs both memory and attribute-lookup time (the PR-7 fast-pathing
    relies on it).  Exception classes are exempt.  For a class that is
    genuinely cold (created once at boot, config-like), annotate the
    ``class`` line with ``# reprolint: allow[RL006] why``.

RL007 ``dead-suppression``
    A ``# reprolint: allow[...]`` comment naming a rule that does not
    fire on its line any more — the code it once justified is gone, so
    the comment is dead weight (and would silently mask a *future*
    reintroduction) — or naming something that is not a rule at all (a
    typo, a retired id), which never suppressed anything.  Delete it.
    ``allow[*]`` is not audited.

Suppression: append ``# reprolint: allow[<rule-or-id>] <reason>`` on the
flagged line.  ``allow[*]`` suppresses every rule on that line.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

__all__ = ["Finding", "LintReport", "lint_paths", "format_finding", "RULES"]

#: rule id -> short name
RULES = {
    "RL001": "wall-clock",
    "RL002": "private-access",
    "RL003": "bare-except",
    "RL004": "unadopted-generator",
    "RL006": "slotless-hot-class",
    "RL007": "dead-suppression",
}
_NAME_TO_ID = {v: k for k, v in RULES.items()}

_ALLOW_RE = re.compile(r"#\s*reprolint:\s*allow\[([^\]]*)\]")

# RL001 — path components exempt from the determinism rule.
_RL001_EXEMPT_PARTS = {"bench", "benchmarks", "analysis", "tests"}
_RL001_EXEMPT_SUFFIXES = ("sim/rand.py",)
_WALLCLOCK_MODULES = {"time", "random"}
_DATETIME_CALLS = {"now", "utcnow", "today"}

# RL006 — hot-path scopes where instance allocation sits on the op path.
_RL006_HOT_DIR_PAIRS = (("core", "server"), ("repro", "net"))
_RL006_HOT_SUFFIXES = (
    "sim/kernel.py",
    "sim/resources.py",
    "sim/rand.py",
    "workloads/clientpop.py",
)
# Base-class names that exempt a class: exception hierarchies (instances
# are off the hot path) and enums (the metaclass owns the layout).
_RL006_EXC_BASES_RE = re.compile(r"(Error|Exception|Enum)$")


def is_generator(fn: ast.AST) -> bool:
    """True when *fn* is a generator function (yield at its own level)."""
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # yields inside nested defs belong to them
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def python_files(paths: Iterable) -> List[Path]:
    """The ``*.py`` files under files/directories (recursively, sorted)."""
    files: List[Path] = []
    for path in paths:
        p = Path(path)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return files


class Finding:
    """One lint finding: location + rule + message."""

    __slots__ = ("path", "line", "col", "rule", "name", "message")

    def __init__(self, path: str, line: int, col: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.col = col
        self.rule = rule
        self.name = RULES[rule]
        self.message = message

    def __repr__(self) -> str:
        return f"Finding({format_finding(self)!r})"


def format_finding(f: Finding) -> str:
    return f"{f.path}:{f.line}:{f.col}: {f.rule}[{f.name}] {f.message}"


class _ModuleFacts(ast.NodeVisitor):
    """First pass: names defined by this module (for RL002/RL004) and
    which local names alias the ``time``/``random`` modules (RL001)."""

    def __init__(self):
        self.private_defined: Set[str] = set()
        self.generator_fns: Set[str] = set()
        self.wallclock_aliases: Set[str] = set()  # names bound to time/random modules
        self.wallclock_names: Set[str] = set()  # names imported *from* them
        self.datetime_aliases: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            top = alias.name.split(".")[0]
            bound = alias.asname or top
            if top in _WALLCLOCK_MODULES:
                self.wallclock_aliases.add(bound)
            if top == "datetime":
                self.datetime_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.split(".")[0] in _WALLCLOCK_MODULES:
            for alias in node.names:
                self.wallclock_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _note_def(self, name: str) -> None:
        if name.startswith("_") and not name.startswith("__"):
            self.private_defined.add(name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._note_def(node.name)
        if is_generator(node):
            self.generator_fns.add(node.name)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._note_def(node.name)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._note_def(node.name)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # self._x = ... / cls._x = ... defines _x for this module.
        if isinstance(node.ctx, (ast.Store, ast.Del)) and isinstance(
            node.value, ast.Name
        ):
            if node.value.id in ("self", "cls"):
                self._note_def(node.attr)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                self._note_def(tgt.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            self._note_def(node.target.id)
        self.generic_visit(node)


class _Linter(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        facts: _ModuleFacts,
        rl001_exempt: bool,
        rl006_hot: bool = False,
    ):
        self.path = path
        self.facts = facts
        self.rl001_exempt = rl001_exempt
        self.rl006_hot = rl006_hot
        self.findings: List[Finding] = []

    # -- RL006 ------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.rl006_hot and not self._has_slots(node) and not (
            self._is_exception_class(node)
        ):
            self._add(
                node,
                "RL006",
                f"class {node.name} in a hot-path module has no __slots__ "
                f"— instances pay a per-object __dict__ on the op path; "
                f"declare __slots__ (use '__slots__ = ()' on mixins) or "
                f"allowlist a cold class with "
                f"'# reprolint: allow[RL006] <why>'",
            )
        self.generic_visit(node)

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            ):
                return True
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return True
        return False

    @staticmethod
    def _is_exception_class(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else ""
            )
            if _RL006_EXC_BASES_RE.search(name):
                return True
        return False

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, node.lineno, node.col_offset, rule, message)
        )

    # -- RL001 ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if not self.rl001_exempt:
            self._check_wallclock(node)
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Name):
            if fn.id in self.facts.wallclock_names:
                self._add(
                    node,
                    "RL001",
                    f"call to {fn.id}() from the "
                    f"time/random stdlib breaks sim determinism — use sim.now "
                    f"or repro.sim.rand.make_rng instead",
                )
            return
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            base = fn.value.id
            if base in self.facts.wallclock_aliases:
                self._add(
                    node,
                    "RL001",
                    f"call to {base}.{fn.attr}() breaks sim determinism — "
                    f"use sim.now or repro.sim.rand.make_rng instead",
                )
            elif fn.attr in _DATETIME_CALLS and (
                base in self.facts.datetime_aliases or base == "datetime"
            ):
                self._add(
                    node,
                    "RL001",
                    f"call to {base}.{fn.attr}() reads the wall clock — "
                    f"sim-visible code must use sim.now",
                )

    # -- RL002 ------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = node.attr
        if (
            attr.startswith("_")
            and not (attr.startswith("__") and attr.endswith("__"))
            and not (
                isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            )
            and attr not in self.facts.private_defined
        ):
            self._add(
                node,
                "RL002",
                f"cross-module access to private attribute ._{attr.lstrip('_')} "
                f"— add a public accessor on the owning class, or allowlist "
                f"with '# reprolint: allow[private-access] <why>'",
            )
        self.generic_visit(node)

    # -- RL003 ------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(
                node,
                "RL003",
                "bare 'except:' swallows GeneratorExit/KeyboardInterrupt "
                "— catch a concrete exception type",
            )
        elif isinstance(node.type, ast.Name) and node.type.id == "BaseException":
            has_raise = any(isinstance(n, ast.Raise) for n in ast.walk(node))
            name_used = node.name is not None and any(
                isinstance(n, ast.Name)
                and n.id == node.name
                and isinstance(n.ctx, ast.Load)
                for stmt in node.body
                for n in ast.walk(stmt)
            )
            if not has_raise and not name_used:
                self._add(
                    node,
                    "RL003",
                    "'except BaseException' without re-raise or use of the "
                    "exception swallows GeneratorExit/KeyboardInterrupt — "
                    "narrow it or propagate",
                )
        self.generic_visit(node)

    # -- RL004 ------------------------------------------------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            fname = None
            fn = call.func
            if isinstance(fn, ast.Name):
                fname = fn.id
            elif (
                isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Name)
                and fn.value.id == "self"
            ):
                fname = fn.attr
            if fname is not None and fname in self.facts.generator_fns:
                self._add(
                    node,
                    "RL004",
                    f"generator function {fname}() called as a bare statement: "
                    f"the generator is created and dropped, its body never "
                    f"runs — drive it with 'yield from', sim.spawn/adopt it, "
                    f"or delete the call",
                )
        self.generic_visit(node)


def _rl001_exempt(path: Path) -> bool:
    posix = path.as_posix()
    if any(part in _RL001_EXEMPT_PARTS for part in path.parts):
        return True
    return any(posix.endswith(suffix) for suffix in _RL001_EXEMPT_SUFFIXES)


def _rl006_hot(path: Path) -> bool:
    """True for modules whose classes sit on the per-op hot path."""
    parts = path.parts
    posix = path.as_posix()
    for a, b in _RL006_HOT_DIR_PAIRS:
        for i in range(len(parts) - 1):
            if parts[i] == a and parts[i + 1] == b:
                return True
    return any(posix.endswith(suffix) for suffix in _RL006_HOT_SUFFIXES)


def _allow_comments(source: str) -> Dict[int, Tuple[int, List[str]]]:
    """``line -> (col, tokens)`` of every allow comment in *source*, rule
    names translated to ids.  Only real COMMENT tokens count: docstrings
    and messages that merely *mention* the allow syntax are prose."""
    out: Dict[int, Tuple[int, List[str]]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            m = _ALLOW_RE.search(tok.string) if tok.type == tokenize.COMMENT else None
            if m:
                tokens = [t.strip() for t in m.group(1).split(",")]
                out[tok.start[0]] = (tok.start[1], [_NAME_TO_ID.get(t, t) for t in tokens])
    except (tokenize.TokenError, IndentationError):
        pass  # a file that does not parse is reported as such, once
    return out


def _syntactic_findings(p: Path, source: str) -> List[Finding]:
    """RL001-RL006 over one file, unsuppressed."""
    try:
        tree = ast.parse(source, filename=str(p))
    except SyntaxError as exc:
        return [
            Finding(str(p), exc.lineno or 1, exc.offset or 0, "RL003", f"syntax error: {exc.msg}")
        ]
    facts = _ModuleFacts()
    facts.visit(tree)
    linter = _Linter(str(p), facts, _rl001_exempt(p), rl006_hot=_rl006_hot(p))
    linter.visit(tree)
    return linter.findings


class LintReport(NamedTuple):
    """What one :func:`lint_paths` run produced."""

    findings: List[Finding]  #: what survived suppression, plus the RL007 audit
    files: List[Path]  #: the files scanned


def lint_paths(paths: Iterable) -> LintReport:
    """Run every rule over files and directories (recursively, ``*.py``)."""
    files = python_files(paths)
    raw: List[Finding] = []
    allows: Dict[str, Dict[int, Tuple[int, List[str]]]] = {}
    for f in files:
        source = f.read_text(encoding="utf-8")
        raw.extend(_syntactic_findings(f, source))
        allows[str(f)] = _allow_comments(source)

    # The one suppression pass, then RL007 over the allow comments
    # themselves: a named rule that suppressed nothing on its line is a
    # dead suppression, a token that names no rule never was one.
    out: List[Finding] = []
    used: Dict[Tuple[str, int], Set[str]] = {}
    for finding in raw:
        _col, tokens = allows[finding.path].get(finding.line, (0, ()))
        if "*" in tokens or finding.rule in tokens:
            used.setdefault((finding.path, finding.line), set()).add(finding.rule)
        else:
            out.append(finding)
    known = set(RULES)
    for path, comments in allows.items():
        for line, (col, tokens) in comments.items():
            if "*" in tokens:
                continue  # blanket allows are not audited
            unknown = sorted(set(tokens) - known)
            if unknown:
                out.append(Finding(
                    path, line, col, "RL007",
                    f"allow[{','.join(unknown)}] names no rule and suppresses "
                    f"nothing — fix the id or delete the comment",
                ))
            dead = sorted(set(tokens) & known - {"RL007"} - used.get((path, line), set()))
            if dead:
                out.append(Finding(
                    path, line, col, "RL007",
                    f"allow[{','.join(dead)}] suppresses nothing on this line "
                    f"any more — delete the dead comment",
                ))
    out.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintReport(out, files)
