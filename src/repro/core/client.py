"""LibFS: the client-side library (§3.2).

Clients link LibFS to talk to the metadata cluster.  It keeps a metadata
cache for client-side path resolution (with server-side validation: every
request ships the resolved ancestor directory ids, and servers reject
requests whose ancestors appear in their invalidation lists — the client
then invalidates its cache and retries).

All operations are generators returning their result dict; latency is
whatever virtual time elapses between call and return, which the bench
harness records.  POSIX surface:

``create, delete, mkdir, rmdir, stat, open, close, statdir, readdir,
rename``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterator, Optional, Set, Tuple

from ..net import RpcError, RpcNode, StaleSetHeader, StaleSetOp
from ..net.topology import Network
from ..sim import Counter, Simulator
from .config import FSConfig
from ..errors import EINVALIDPATH, ENOENT, EWRONGEPOCH, FSError, fs_error
from .membership import Placement
from .schema import file_cache_fingerprint, fingerprint_of, root_inode

__all__ = ["LibFS", "ResolvedDir"]

#: Retries an op gets per staleness code (LibFS._repair).
_RETRY_BUDGET = {EINVALIDPATH: 2, EWRONGEPOCH: 3}


@dataclass(frozen=True)
class ResolvedDir:
    """A resolved directory: its id, fingerprint, inode key, and ancestry."""

    id: int
    fingerprint: int
    pid: int
    name: str
    perm: int
    ancestor_ids: Tuple[int, ...]  # ids along the path, root excluded, self included

    @property
    def key(self) -> Tuple[str, int, str]:
        return ("D", self.pid, self.name)


def split_path(path: str) -> Tuple[str, str]:
    """Split an absolute path into (parent path, last component)."""
    if not path.startswith("/") or path == "/":
        raise ValueError(f"need an absolute non-root path, got {path!r}")
    path = path.rstrip("/")
    idx = path.rfind("/")
    parent = path[:idx] or "/"
    return parent, path[idx + 1 :]


def _ancestors(path: str) -> Iterator[str]:
    """The ``/``-prefixes of absolute *path* short of itself, root
    excluded: exactly the paths *path* is under."""
    end = path.find("/", 1)
    while end > 0:
        yield path[:end]
        end = path.find("/", end + 1)


class LibFS:
    """One client's filesystem handle."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        addr: str,
        config: FSConfig,
        placement: Placement,
    ):
        self.sim = sim
        self.config = config
        self.perf = config.perf
        # Every routing question goes to *placement*: the membership view
        # current when the client was built, or a baseline's partition.
        # Clients route against an epoch snapshot, not the live view: a
        # migration bumps the cluster's epoch without telling clients, and
        # the WrongEpoch redirect protocol (refresh + retry) is how a
        # stale view catches up — exactly like a real deployment.
        self._view = placement
        self.node = RpcNode(sim, net, addr)
        self.counters = Counter()
        # In-switch dentry cache (DESIGN.md §15): when enabled, lookups
        # and stats carry a LOOKUP header; the switch counts its hits.
        self._switch_cache = config.switch_cache
        root = root_inode()
        self._root = ResolvedDir(
            id=root.id,
            fingerprint=root.fingerprint,
            pid=root.pid,
            name=root.name,
            perm=root.perm,
            ancestor_ids=(),
        )
        # path -> ResolvedDir for directories only, indexed by directory:
        # path -> every cached path under it (see invalidate_path).
        self._cache: Dict[str, ResolvedDir] = {}
        self._under: Dict[str, Set[str]] = {}

    @property
    def view_epoch(self) -> int:
        """Epoch of the membership view this client currently routes by."""
        return self._view.epoch

    # ------------------------------------------------------------------
    # path resolution
    # ------------------------------------------------------------------
    def resolve_dir(self, path: str) -> Generator:
        """Resolve an absolute directory path to a :class:`ResolvedDir`.

        Client-side: walks the metadata cache; cache misses issue
        ``lookup_dir`` RPCs and populate the cache (§4.2.1 step 1).
        """
        if path == "/":
            yield self.sim.timeout(self.perf.cache_lookup_us)
            return self._root
        cached = self._cache.get(path)
        if cached is not None:
            self.counters.inc("cache_hits")
            yield self.sim.timeout(self.perf.cache_lookup_us)
            return cached
        self.counters.inc("cache_misses")
        parent_path, name = split_path(path)
        parent = yield from self.resolve_dir(parent_path)
        owner = self._view.dir_owner(parent.id, name, path)
        header = None
        if self._switch_cache:
            header = StaleSetHeader(
                op=StaleSetOp.LOOKUP, fingerprint=fingerprint_of(parent.id, name)
            )
        value, _ = yield from self._call(
            owner, "lookup_dir", {"pid": parent.id, "name": name}, header=header
        )
        # value: {"id", "fingerprint", "perm"}
        resolved = ResolvedDir(
            id=value["id"],
            fingerprint=value["fingerprint"],
            pid=parent.id,
            name=name,
            perm=value["perm"],
            ancestor_ids=parent.ancestor_ids + (value["id"],),
        )
        self.prime_cache(path, resolved)
        return resolved

    def prime_cache(self, path: str, resolved: ResolvedDir) -> None:
        """Cache *resolved* as directory *path* (also the bootstrap/warm-up
        helper)."""
        if path not in self._cache:
            for ancestor in _ancestors(path):
                self._under.setdefault(ancestor, set()).add(path)
        self._cache[path] = resolved

    def _forget(self, path: str) -> None:
        """Drop cached directory *path* and its place in the index."""
        if self._cache.pop(path, None) is not None:
            for ancestor in _ancestors(path):
                under = self._under[ancestor]
                under.discard(path)
                if not under:
                    del self._under[ancestor]

    def invalidate_path(self, path: str) -> None:
        """Drop every cached entry on *path* (server said our view is stale):
        its ancestors, itself and everything under it (a removed subtree),
        which the index names without a scan of the cache."""
        path = path.rstrip("/")
        if not path:  # the root: everything is under it
            self._cache.clear()
            self._under.clear()
            return
        prefix = ""
        for part in path.split("/")[1:]:
            prefix = f"{prefix}/{part}"
            self._forget(prefix)
        for below in list(self._under.get(path, ())):
            self._forget(below)

    # ------------------------------------------------------------------
    # POSIX operations
    # ------------------------------------------------------------------
    # Every public op is a plain function returning its retry generator
    # directly — the five file ops share the flattened `_file_op`, the rest
    # build an `attempt` closure for `_with_revalidation`.  Nothing before
    # the hand-off yields, so this is behaviour-identical to the old
    # `return (yield from ...)` spelling — but the two dropped delegation
    # frames are no longer traversed by every resume of the operation.
    def create(self, path: str, perm: int = 0o644) -> Generator:
        return self._file_op("create", path, {"perm": perm})

    def delete(self, path: str) -> Generator:
        return self._file_op("delete", path, {})

    def stat(self, path: str) -> Generator:
        return self._file_op("stat", path)

    def open(self, path: str) -> Generator:
        return self._file_op("open", path)

    def close(self, path: str) -> Generator:
        return self._file_op("close", path)

    def _file_op(
        self, method: str, path: str, update: Optional[Dict[str, Any]] = None
    ) -> Generator:
        """One file op, routed to the file's owner (Figure 4's client half).

        *update* marks a double-inode op: its keys ride in the request
        beside the parent's fingerprint, which the server needs for the
        delayed parent update.  Without it the op is a single-inode read,
        which the switch's dentry cache may answer (LOOKUP header).
        """
        # Flattened hot path: the retry wrapper (_with_revalidation), the
        # attempt closure, and the _call delegation were three extra
        # generator frames traversed by *every* resume of the op.  The
        # cache-hit arm of resolve_dir is inlined too (the steady-state
        # case in a warmed run).  Yield-for-yield identical to the
        # wrapped spelling.
        sim = self.sim
        perf = self.perf
        parent_path, name = split_path(path)
        lookup = update is None and self._switch_cache and method != "close"
        spent = None
        while True:
            try:
                parent = (
                    self._cache.get(parent_path) if parent_path != "/" else None
                )
                if parent is not None:
                    self.counters.inc("cache_hits")
                    yield sim.timeout(perf.cache_lookup_us)
                else:
                    parent = yield from self.resolve_dir(parent_path)
                owner = self._view.file_owner(parent.id, name, parent_path)
                args = {
                    "pid": parent.id,
                    "name": name,
                    "ancestor_ids": parent.ancestor_ids,
                    "path": path,
                }
                if update is not None:
                    args["parent_fp"] = parent.fingerprint
                    args.update(update)
                yield sim.timeout(perf.client_cpu_us)
                header = None
                if lookup:
                    header = StaleSetHeader(
                        op=StaleSetOp.LOOKUP,
                        fingerprint=file_cache_fingerprint(parent.id, name),
                    )
                try:
                    # A stale owner is safe: EWRONGEPOCH refreshes the view
                    # and the loop retries.
                    value, _ = yield from self.node.call(
                        owner,
                        method,
                        args,
                        header=header,
                        timeout_us=perf.rpc_timeout_us,
                        max_attempts=perf.rpc_max_attempts,
                    )
                except FSError:
                    raise
                except RpcError as exc:
                    raise fs_error(str(exc)) from exc
                return value
            except FSError as exc:
                spent = yield from self._repair(exc.code, path, spent)
                if spent is None:
                    raise

    def mkdir(self, path: str, perm: int = 0o755) -> Generator:
        def attempt() -> Generator:
            parent_path, name = split_path(path)
            parent = yield from self.resolve_dir(parent_path)
            owner = self._view.dir_owner(parent.id, name, path)
            args = {
                "pid": parent.id,
                "name": name,
                "parent_fp": parent.fingerprint,
                "ancestor_ids": parent.ancestor_ids,
                "path": path,
                "perm": perm,
            }
            value, _ = yield from self._call(owner, "mkdir", args)
            # What mkdir made is what a lookup would return: an rmdir or a
            # create under it right after resolves from the cache.
            self.prime_cache(path, ResolvedDir(
                id=value["id"],
                fingerprint=value["fingerprint"],
                pid=parent.id,
                name=name,
                perm=perm,
                ancestor_ids=parent.ancestor_ids + (value["id"],),
            ))
            return value

        return self._with_revalidation(attempt, path)

    def rmdir(self, path: str) -> Generator:
        def attempt() -> Generator:
            target = yield from self.resolve_dir(path)
            parent_path, name = split_path(path)
            parent = yield from self.resolve_dir(parent_path)
            owner = self._view.dir_owner(parent.id, name, path)
            args = {
                "pid": parent.id,
                "name": name,
                "dir_id": target.id,
                "fp": target.fingerprint,
                "parent_fp": parent.fingerprint,
                "ancestor_ids": parent.ancestor_ids,
                "path": path,
            }
            value, _ = yield from self._call(owner, "rmdir", args)
            self._forget(path)
            return value

        return self._with_revalidation(attempt, path)

    def statdir(self, path: str) -> Generator:
        return self._dir_read("statdir", path)

    def readdir(self, path: str) -> Generator:
        """List a directory: every entry's name, in name order."""
        return self._dir_read("readdir", path)

    def _dir_read(self, method: str, path: str) -> Generator:
        """Directory reads carry a QUERY header the switch fills in (§4.2.2)."""

        def attempt() -> Generator:
            target = yield from self.resolve_dir(path)
            owner = self._view.dir_owner(target.pid, target.name, path)
            args = {
                "pid": target.pid,
                "name": target.name,
                "fp": target.fingerprint,
                "ancestor_ids": target.ancestor_ids[:-1],
                "path": path,
            }
            header = None
            if self.config.stale_backend == "switch":
                header = StaleSetHeader(op=StaleSetOp.QUERY, fingerprint=target.fingerprint)
            value, _ = yield from self._call(owner, method, args, header=header)
            return value

        return self._with_revalidation(attempt, path)

    def rename(self, src: str, dst: str) -> Generator:
        def attempt() -> Generator:
            src_parent_path, src_name = split_path(src)
            dst_parent_path, dst_name = split_path(dst)
            src_parent = yield from self.resolve_dir(src_parent_path)
            dst_parent = yield from self.resolve_dir(dst_parent_path)
            # Directory-ness of the source: a cached dir entry or a probe.
            is_dir = True
            src_dir_id = None
            try:
                target = yield from self.resolve_dir(src)
                src_dir_id = target.id
            except FSError as exc:
                if exc.code != ENOENT:
                    raise
                is_dir = False
            args = {
                "src_pid": src_parent.id,
                "src_name": src_name,
                "dst_pid": dst_parent.id,
                "dst_name": dst_name,
                "is_dir": is_dir,
                "src_dir_id": src_dir_id,
                "src_parent_fp": src_parent.fingerprint,
                "dst_parent_fp": dst_parent.fingerprint,
                "src_parent_key": src_parent.key,
                "dst_parent_key": dst_parent.key,
                "ancestor_ids": src_parent.ancestor_ids + dst_parent.ancestor_ids,
                "dst_ancestor_ids": dst_parent.ancestor_ids,
                "path": src,
                "dst_path": dst,
                "src_parent_path": src_parent_path,
                "dst_parent_path": dst_parent_path,
            }
            if is_dir:
                # Directory renames delegate to the centralised coordinator
                # (orphan-loop prevention needs global serialisation).
                value, _ = yield from self._call(
                    self._view.rename_coordinator, "rename", args
                )
            else:
                # File renames cannot create loops: the client drives the
                # distributed transaction itself, saving the coordinator
                # round trip.
                from .rename import rename_transaction

                yield self.sim.timeout(self.perf.client_cpu_us)
                try:
                    value = yield from rename_transaction(
                        self.node, self.sim, self._view, self.perf, args,
                        async_updates=self.config.async_updates,
                    )
                except FSError:
                    raise
                except RpcError as exc:
                    raise fs_error(str(exc)) from exc
            self.invalidate_path(src)
            return value

        return self._with_revalidation(attempt, src)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _call(
        self, dst: str, method: str, args: Dict[str, Any], header=None
    ) -> Generator:
        yield self.sim.timeout(self.perf.client_cpu_us)
        try:
            return (
                yield from self.node.call(
                    dst,
                    method,
                    args,
                    header=header,
                    timeout_us=self.perf.rpc_timeout_us,
                    max_attempts=self.perf.rpc_max_attempts,
                )
            )
        except FSError:
            raise
        except RpcError as exc:
            raise fs_error(str(exc)) from exc

    def _refresh_view(self) -> Generator:
        """Fetch the current membership view after a WrongEpoch redirect.

        Asks the servers of the (stale) view in order; retired servers
        keep answering ``get_membership``, so at least one address in any
        stale view is reachable.  Adopts the reply only if it is newer.
        """
        for addr in self._view.servers:
            try:
                value, _ = yield from self._call(addr, "get_membership", {})
            except FSError:
                continue
            view = value["view"]
            if view.epoch > self._view.epoch:
                self._view = view
            return
        # Every server of the stale view unreachable: keep the view; the
        # retry loop will surface the original error if it persists.

    def _with_revalidation(self, attempt, path: str) -> Generator:
        """Run *attempt*; retry after repairing recoverable staleness."""
        spent = None
        while True:
            try:
                return (yield from attempt())
            except FSError as exc:
                spent = yield from self._repair(exc.code, path, spent)
                if spent is None:
                    raise

    def _repair(
        self, code: str, path: str, spent: Optional[Dict[str, int]]
    ) -> Generator:
        """The retry policy, run only by an op's ``except FSError`` clause:
        repair the staleness error *code* reports and return the retries
        *spent* so far (None before the first), or None for the caller to
        re-raise when *code* is no staleness or its budget is gone.  It
        takes the code and returns rather than raising: an error raised
        from a frame that holds it is a cycle (error, traceback, frame),
        garbage that a collector-off run window keeps.

        Two independent budgets: EINVALIDPATH (stale path cache →
        invalidate and re-resolve, twice) and EWRONGEPOCH (stale membership
        view → refresh and re-route).  A migration can move an op's target
        more than once, so epoch retries get one extra attempt.
        """
        used = spent.get(code, 0) if spent else 0
        if used >= _RETRY_BUDGET.get(code, 0):
            return None
        spent = spent or {}
        spent[code] = used + 1
        if code == EINVALIDPATH:
            self.counters.inc("cache_invalidations")
            self.invalidate_path(path)
        else:
            self.counters.inc("wrong_epoch_retries")
            yield from self._refresh_view()
        return spent
