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
  ``release``-family method on one of theirs (``_release(lock, mode)``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["FuncInfo", "Project", "is_generator", "python_files", "scan_project"]


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


class FuncInfo:
    """One project function/method: identity + AST + derived facts."""

    __slots__ = (
        "qualname", "name", "path", "node", "is_generator", "class_name",
        "lock_class", "acquire_wrapper_param", "release_wrapper_param",
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
        #: lock classes acquired here or in yield-from callees (flow.py fixpoint)
        self.acquired_classes: Set[str] = set()
        #: lock classes possibly still held at exit (flow.py fixpoint)
        self.residual_classes: Set[str] = set()

    def __repr__(self) -> str:
        return f"FuncInfo({self.qualname!r})"


# Orderable mutual-exclusion constructors only: counted ``Resource``
# pools (CPU cores) cannot deadlock by ordering, mirroring SimTracer —
# an ``acquire`` on one resolves to no lock class and is ignored.
_LOCK_CTORS = {"Lock", "RWLock"}
_ACQUIRE_METHODS = {"acquire", "acquire_read", "acquire_write"}
RELEASE_METHODS = {"release", "release_read", "release_write"}


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


def acquire_call(value: Optional[ast.expr]) -> Optional[ast.Call]:
    """The ``X.acquire*()`` call a plain ``yield <value>`` waits on, or
    None when the yield waits on anything else."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute) \
            and value.func.attr in _ACQUIRE_METHODS:
        return value
    return None


class Project:
    """Function index + name-resolved call graph over a file set."""

    def __init__(self) -> None:
        self.functions: Dict[str, FuncInfo] = {}
        self.by_name: Dict[str, List[FuncInfo]] = {}
        #: function name -> lock class it produces
        self.lock_producers: Dict[str, str] = {}
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
                                is_generator(stmt), class_name)
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
        """Derive the producer and wrapper facts."""
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

    # -- facts -----------------------------------------------------------
    def _producer_class(self, info: FuncInfo) -> Optional[str]:
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                cls = _lock_class_of_ctor(node)
                if cls is not None:
                    return cls
        return None

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
            call = acquire_call(y.value)
            if call is None:
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


def python_files(paths: Iterable) -> List[Path]:
    """The ``*.py`` files under files/directories (recursively, sorted)."""
    files: List[Path] = []
    for path in paths:
        p = Path(path)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return files


def scan_project(paths: Iterable) -> Project:
    """Scan files/directories (recursively, ``*.py``) into a Project."""
    project = Project()
    for f in python_files(paths):
        project.add_file(f)
    project.finalize()
    return project
