"""Whole-project function index and call graph over ``src/repro``.

The flow analyses (:mod:`repro.analysis.flow`) are interprocedural: a
lock held in ``_handle_rmdir`` while ``yield from``-delegating into
``_apply_logs`` must see the inode-lock acquisitions inside the callee.
:class:`Project` scans a file set once and provides

* a **function index** (qualified name -> :class:`FuncInfo` with AST,
  generator-ness, and source path),
* **call resolution by name**: ``self.meth(...)`` / ``obj.meth(...)``
  resolve to every project function named ``meth`` (mixin classes make
  receiver-accurate resolution impossible statically; resolving by name
  over-approximates, which can only add analysis paths — DESIGN.md §17),
* **lock-class producers**: functions that construct a named
  ``Lock``/``RWLock`` (``name=f"inode:..."``) are producers of that lock
  *class* (the label prefix before the first ``:``), the same classes
  the dynamic :class:`~repro.analysis.trace.SimTracer` labels carry —
  that shared naming is what makes the static/dynamic lock-order
  cross-check possible,
* **acquire wrappers**: generator helpers whose every yield waits on an
  ``acquire``-family call on one of their own parameters (the runtime's
  ``_acquire(lock, mode)``, which hands the lock back); call sites map
  their argument expression to a lock class instead of descending into
  the wrapper — and **release wrappers**, plain functions that call a
  ``release``-family method on one of theirs (``_release(lock, mode)``),
* **hold producers**: plain functions that *return* a timed hold on a
  counted pool (``return self.cores.hold(...)``), so yielding their
  result is a bounded wait, not an event,
* **wait kinds** per generator (fixpoint over ``yield from`` edges):
  what a ``yield`` can block on — ``timeout`` (bounded simulated time),
  ``pool`` (counted CPU-core resources, not orderable), ``lock``
  (mutual-exclusion acquire), or ``event`` (RPC completions and bare
  events: unbounded on simulated time).  A pool hold is ``pool`` +
  ``timeout``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import AbstractSet, Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["FuncInfo", "Project", "scan_project"]


def _is_generator(fn: ast.AST) -> bool:
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


class FuncInfo:
    """One project function/method: identity + AST + derived facts."""

    __slots__ = (
        "qualname", "name", "path", "node", "is_generator", "class_name",
        "lock_class", "acquire_wrapper_param", "release_wrapper_param", "wait_kinds",
        "acquired_classes", "residual_classes",
    )

    def __init__(self, qualname: str, name: str, path: str, node: ast.AST,
                 is_generator: bool, class_name: Optional[str]):
        self.qualname = qualname
        self.name = name
        self.path = path
        self.node = node
        self.is_generator = is_generator
        self.class_name = class_name
        #: lock class this function produces (``_inode_lock`` -> "inode")
        self.lock_class: Optional[str] = None
        #: parameter index (0-based, ``self`` excluded) acquired on behalf
        #: of the caller, for runtime-style ``_acquire(lock, mode)`` helpers
        self.acquire_wrapper_param: Optional[int] = None
        #: likewise for plain ``_release(lock, mode)`` helpers
        self.release_wrapper_param: Optional[int] = None
        #: what this generator's yields can block on (fixpoint result)
        self.wait_kinds: Set[str] = set()
        #: lock classes acquired here or in yield-from callees (flow.py fixpoint)
        self.acquired_classes: Set[str] = set()
        #: lock classes possibly still held at exit (flow.py fixpoint)
        self.residual_classes: Set[str] = set()

    def __repr__(self) -> str:
        return f"FuncInfo({self.qualname!r})"


# Orderable mutual-exclusion constructors only: counted ``Resource``
# pools (CPU cores) cannot deadlock by ordering, mirroring SimTracer.
_LOCK_CTORS = {"Lock", "RWLock"}
_ACQUIRE_METHODS = {"acquire", "acquire_read", "acquire_write"}
RELEASE_METHODS = {"release", "release_read", "release_write"}
#: Receiver names treated as counted pools (capacity > 1, not orderable —
#: mirrors SimTracer's ``_orderable``); everything else that ``acquire``s
#: is treated as a mutual-exclusion lock.
_POOL_RECEIVERS = {"cores"}
#: ``Resource`` methods returning one event for acquire + timed hold + release.
_HOLD_METHODS = {"hold", "hold_all"}


def _lock_class_of_ctor(call: ast.Call) -> Optional[str]:
    """``RWLock(sim, name=f"inode:{...}")`` -> ``"inode"`` (None when the
    constructor is unnamed or the name carries no class prefix)."""
    fn = call.func
    ctor = fn.id if isinstance(fn, ast.Name) else (
        fn.attr if isinstance(fn, ast.Attribute) else None
    )
    if ctor not in _LOCK_CTORS:
        return None
    for kw in call.keywords:
        if kw.arg != "name":
            continue
        value = kw.value
        text = None
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            text = value.value
        elif isinstance(value, ast.JoinedStr) and value.values:
            first = value.values[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                text = first.value
        if text:
            return text.split(":", 1)[0]
    return None


def _own_params(info: FuncInfo) -> List[str]:
    args = [a.arg for a in info.node.args.args]
    return args[1:] if args and args[0] in ("self", "cls") else args


def receiver_name(expr: ast.expr) -> Optional[str]:
    """Trailing name of an attribute chain: ``self.cores`` -> ``cores``,
    ``cl_lock`` -> ``cl_lock``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def classify_yield_value(
    value: Optional[ast.expr], hold_producers: AbstractSet[str] = frozenset()
) -> Tuple[str, Optional[ast.Call]]:
    """Classify a plain ``yield <value>``'s wait.

    Returns ``(kind, call)`` where kind is ``"timeout"``, ``"pool"``,
    ``"hold"`` (a pool unit held for a bounded time), ``"lock"``, or
    ``"event"``, and call is the acquire call for ``"lock"``/``"pool"``
    kinds.  *hold_producers*: :attr:`Project.hold_producers`.
    """
    if value is None:
        return "event", None
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
        attr = value.func.attr
        if attr == "timeout":
            return "timeout", None
        if attr in hold_producers or (
            attr in _HOLD_METHODS and receiver_name(value.func.value) in _POOL_RECEIVERS
        ):
            return "hold", None
        if attr in _ACQUIRE_METHODS:
            recv = receiver_name(value.func.value)
            if attr == "acquire" and recv in _POOL_RECEIVERS:
                return "pool", value
            return "lock", value
        if attr == "granted":
            return "timeout", None
    return "event", None


class Project:
    """Function index + name-resolved call graph over a file set."""

    def __init__(self) -> None:
        self.functions: Dict[str, FuncInfo] = {}
        self.by_name: Dict[str, List[FuncInfo]] = {}
        #: function name -> lock class it produces
        self.lock_producers: Dict[str, str] = {}
        #: names of functions that return a timed pool hold
        self.hold_producers: Set[str] = set()
        self.parse_errors: List[Tuple[str, str]] = []

    # -- scanning --------------------------------------------------------
    def add_file(self, path) -> None:
        p = Path(path)
        try:
            tree = ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        except SyntaxError as exc:
            self.parse_errors.append((str(p), str(exc)))
            return
        module = p.stem
        self._scan_body(tree.body, f"{p.as_posix()}::{module}", str(p), None)

    def _scan_body(self, body: Iterable[ast.stmt], prefix: str, path: str,
                   class_name: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{stmt.name}"
                info = FuncInfo(qualname, stmt.name, path, stmt,
                                _is_generator(stmt), class_name)
                self.functions[qualname] = info
                self.by_name.setdefault(stmt.name, []).append(info)
                # Nested defs are indexed too (closures get their own CFG).
                self._scan_body(stmt.body, qualname, path, class_name)
            elif (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)
                  and f"{prefix}.{stmt.value.id}" in self.functions):
                # ``_cpu = charge_cpu``: an alias is another name for the def.
                info = self.functions[f"{prefix}.{stmt.value.id}"]
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.by_name.setdefault(target.id, []).append(info)
            elif isinstance(stmt, ast.ClassDef):
                self._scan_body(stmt.body, f"{prefix}.{stmt.name}", path, stmt.name)

    def finalize(self) -> None:
        """Derive producer/wrapper facts and run the wait-kind fixpoint."""
        for info in self.functions.values():
            cls = self._producer_class(info)
            if cls is not None:
                info.lock_class = cls
                self.lock_producers[info.name] = cls
        for info in self.functions.values():
            if info.is_generator:
                info.acquire_wrapper_param = self._wrapper_param(info)
            else:
                info.release_wrapper_param = self._release_param(info)
        self._derive_hold_producers()
        self._wait_kind_fixpoint()

    # -- facts -----------------------------------------------------------
    def _producer_class(self, info: FuncInfo) -> Optional[str]:
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                cls = _lock_class_of_ctor(node)
                if cls is not None:
                    return cls
        return None

    def _derive_hold_producers(self) -> None:
        """Names (defs and their aliases) of plain functions that return a
        pool hold — direct only, like lock-class producers."""
        for name, infos in self.by_name.items():
            if any(
                isinstance(node, ast.Return)
                and classify_yield_value(node.value)[0] == "hold"
                for info in infos if not info.is_generator
                for node in ast.walk(info.node)
            ):
                self.hold_producers.add(name)

    def _wrapper_param(self, info: FuncInfo) -> Optional[int]:
        """Detect runtime-style acquire wrappers: a generator whose every
        yield is an acquire-family wait on one of its own parameters."""
        params = _own_params(info)
        target: Optional[str] = None
        yields = [n for n in ast.walk(info.node)
                  if isinstance(n, (ast.Yield, ast.YieldFrom))]
        if not yields:
            return None
        for y in yields:
            if isinstance(y, ast.YieldFrom):
                return None
            kind, call = classify_yield_value(y.value)
            if kind != "lock" or call is None:
                return None
            recv = receiver_name(call.func.value)
            if recv not in params:
                return None
            if target is None:
                target = recv
            elif target != recv:
                return None
        return params.index(target) if target is not None else None

    def _release_param(self, info: FuncInfo) -> Optional[int]:
        """Detect release wrappers: a plain function that calls a
        release-family method on one of its own parameters."""
        params = _own_params(info)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in RELEASE_METHODS:
                recv = receiver_name(node.func.value)
                if recv in params:
                    return params.index(recv)
        return None

    # -- call resolution -------------------------------------------------
    def resolve_call(self, call: ast.Call,
                     generators_only: bool = True) -> List[FuncInfo]:
        fn = call.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        if name is None:
            return []
        matches = self.by_name.get(name, [])
        if generators_only:
            matches = [m for m in matches if m.is_generator]
        return matches

    def producer_class_of_call(self, call: ast.Call) -> Optional[str]:
        """Lock class for ``self._inode_lock(key)``-style producer calls."""
        fn = call.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        if name is None:
            return None
        return self.lock_producers.get(name)

    # -- wait kinds ------------------------------------------------------
    def _direct_wait_kinds(self, info: FuncInfo) -> Tuple[Set[str], List[ast.Call]]:
        kinds: Set[str] = set()
        delegations: List[ast.Call] = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.YieldFrom):
                if isinstance(node.value, ast.Call):
                    delegations.append(node.value)
                else:
                    kinds.add("event")
            elif isinstance(node, ast.Yield):
                kind = classify_yield_value(node.value, self.hold_producers)[0]
                kinds.update(("pool", "timeout") if kind == "hold" else (kind,))
        return kinds, delegations

    def _wait_kind_fixpoint(self) -> None:
        gens = [f for f in self.functions.values() if f.is_generator]
        direct: Dict[str, Tuple[Set[str], List[ast.Call]]] = {
            f.qualname: self._direct_wait_kinds(f) for f in gens
        }
        for f in gens:
            f.wait_kinds = set(direct[f.qualname][0])
        changed = True
        while changed:
            changed = False
            for f in gens:
                delegations = direct[f.qualname][1]
                for call in delegations:
                    for callee in self.resolve_call(call):
                        if callee.acquire_wrapper_param is not None:
                            add = {"lock"}
                        else:
                            add = callee.wait_kinds
                        if not add <= f.wait_kinds:
                            f.wait_kinds |= add
                            changed = True


def scan_project(paths: Iterable) -> Project:
    """Scan files/directories (recursively, ``*.py``) into a Project."""
    project = Project()
    for path in paths:
        p = Path(path)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                project.add_file(f)
        else:
            project.add_file(p)
    project.finalize()
    return project
