"""Rename: a synchronous distributed transaction (§4.2).

Rename is the one metadata operation AsyncFS does **not** make
asynchronous: it touches up to four inodes (source and destination
inodes and both parent directories), so it runs as a two-phase-commit
transaction across their owners.

**Directory renames** go through a single well-known coordinator and
first force-aggregate the affected fingerprint groups — the coordinator
serialisation plus the loop check below prevent orphaned loops, and the
aggregation applies all delayed updates to the moving directory before
it changes identity (§4.2: "if the source is a directory, AsyncFS
initiates an aggregation to apply all delayed updates before rename").

**File renames** stay on the fast path: no global serialisation, no
aggregation, and — in async mode — **no parent inode locks at all**.
Only the source and destination file inodes are locked (targets before
parents, sorted within each level, so concurrent renames never deadlock
and the child-before-parent discipline matches the synchronous
create/delete paths); the parent directory
fix-ups take the same deferred change-log path as create/delete: the
commit appends a ``DELETE(src)`` entry at the source owner and a
``CREATE(dst)`` entry at the destination owner, and the self-addressed
``mark_entry`` response carries the stale-set ``INSERT`` for the parent.

Correctness against earlier pending entries falls out of placement:
per-file partitioning puts the pending ``CREATE(src)`` on the *same
server* (same change-log) where the rename appends its ``DELETE(src)``,
so per-name application order is append order; entries for distinct
names commute.  A synchronous scheme (``async_updates=False``) instead
locks the parents and applies *entry ops* in the commit, through the
same apply as every synchronous parent update.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, TYPE_CHECKING

from ..errors import EEXIST, EINVAL, ENOENT, FSError
from .schema import (
    dir_meta_key,
    file_meta_key,
    fingerprint_of,
)

if TYPE_CHECKING:  # pragma: no cover
    from .server import MetadataServer

__all__ = ["run_rename", "rename_transaction"]

_txn_ids = itertools.count(1)


class _Plan:
    """Per-participant accumulation of locks, expectations, and ops."""

    def __init__(self):
        self.by_server: Dict[str, Dict[str, list]] = {}

    def _slot(self, addr: str) -> Dict[str, list]:
        return self.by_server.setdefault(
            addr,
            {
                "lock_keys": [],
                "expect": [],
                "ops": [],
                "entry_ops": [],
                "async_entries": [],
                "dir_index": [],
                "dir_index_drop": [],
            },
        )

    def lock(self, addr: str, key) -> None:
        slot = self._slot(addr)
        if list(key) not in slot["lock_keys"]:
            slot["lock_keys"].append(list(key))

    def expect(self, addr: str, key, must_exist: bool) -> None:
        self.lock(addr, key)
        self._slot(addr)["expect"].append((list(key), must_exist))

    def put(self, addr: str, key, value) -> None:
        self.lock(addr, key)
        self._slot(addr)["ops"].append(("put", list(key), value))

    def delete(self, addr: str, key) -> None:
        self.lock(addr, key)
        self._slot(addr)["ops"].append(("delete", list(key), None))

    def entry_op(self, addr: str, parent_key, parent_id, name, add, is_dir, ts) -> None:
        """A presence-aware parent entry-list fix-up + inode touch."""
        self.lock(addr, parent_key)
        self._slot(addr)["entry_ops"].append(
            (list(parent_key), parent_id, name, add, is_dir, ts)
        )

    def async_entry(self, addr: str, parent_id, parent_fp, entry) -> None:
        """A deferred parent update appended at *addr* during commit."""
        self._slot(addr)["async_entries"].append((parent_id, parent_fp, entry))

    def index(self, addr: str, dir_id: int, key) -> None:
        self._slot(addr)["dir_index"].append((dir_id, list(key)))

    def index_drop(self, addr: str, dir_id: int) -> None:
        self._slot(addr)["dir_index_drop"].append(dir_id)


def run_rename(server: "MetadataServer", args: Dict[str, Any]) -> Generator:
    """Coordinator-side rename workflow: directory renames, serialised
    through the one coordinator (orphan-loop prevention).  A client drives
    a file rename's :func:`rename_transaction` itself."""
    sim, perf = server.sim, server.perf
    node = server.node

    yield server.rename_serializer().acquire()
    try:
        yield server.charge_cpu(perf.path_check_us)
        if not server.inval.validate(args.get("ancestor_ids", ())):
            raise FSError("EINVALIDPATH", args.get("path", "?"))
        # The whole transaction routes against the view as of now, under
        # the serialiser; a participant that has since lost a shard answers
        # EWRONGEPOCH and the client refreshes and retries.
        result = yield from rename_transaction(  # the rename serialiser spans the whole distributed transaction by design
            node, sim, server.membership.current, perf, args,
            async_updates=server.config.async_updates,
        )
        server.counters.inc("renames")
        return result
    finally:
        server.rename_serializer().release()


def rename_transaction(node, sim, view, perf, args: Dict[str, Any],
                       async_updates: bool = True) -> Generator:
    """The rename distributed transaction, drivable from any RPC node.

    File renames are driven directly by the client (no coordinator hop);
    directory renames run under the coordinator (see :func:`run_rename`).
    Every step routes against *view*, one
    :class:`~repro.core.membership.Placement` snapshot (a membership view
    or a baseline's partition), by the names and paths in *args*.
    """
    is_dir = args["is_dir"]
    src_pid, src_name = args["src_pid"], args["src_name"]
    dst_pid, dst_name = args["dst_pid"], args["dst_name"]

    if is_dir and args.get("src_dir_id") in args.get("dst_ancestor_ids", ()):
        raise FSError(EINVAL, "rename would create an orphaned loop")
    if src_pid == dst_pid and src_name == dst_name:
        return {"status": "ok"}  # rename to self is a no-op

    # -- directory renames: aggregate affected groups first ----------------
    if is_dir and async_updates:
        fps = {
            args["src_parent_fp"],
            args["dst_parent_fp"],
            fingerprint_of(src_pid, src_name),
        }
        for fp in sorted(fps):
            owner = view.dir_owner_by_fp(fp)
            yield from node.call(
                owner, "aggregate_now", {"fp": fp},
                timeout_us=perf.rpc_timeout_us,
                max_attempts=perf.rpc_max_attempts,
            )

    # -- read state and build the plan ------------------------------------
    src_parent_path, dst_parent_path = args["src_parent_path"], args["dst_parent_path"]
    if is_dir:
        src_key, dst_key = dir_meta_key(src_pid, src_name), dir_meta_key(dst_pid, dst_name)
        src_owner = view.dir_owner(src_pid, src_name, args["path"])
        dst_owner = view.dir_owner(dst_pid, dst_name, args["dst_path"])
    else:
        src_key, dst_key = file_meta_key(src_pid, src_name), file_meta_key(dst_pid, dst_name)
        src_owner = view.file_owner(src_pid, src_name, src_parent_path)
        dst_owner = view.file_owner(dst_pid, dst_name, dst_parent_path)

    now = sim.now
    txn_id = next(_txn_ids)

    # For directory renames (rare, globally serialised) we read the source
    # inode up front — the migration scan needs its id.  File renames fold
    # the read into the source-key lock below.
    src_inode = None
    if is_dir:
        value, _ = yield from node.call(
            src_owner, "read_inode", {"key": src_key},
            timeout_us=perf.rpc_timeout_us, max_attempts=perf.rpc_max_attempts,
        )
        src_inode = value["inode"]

    # -- round 1: locks in target-then-parent order (checks/reads folded in) --
    # Two-level hierarchical order: the rename *targets* (source and
    # destination inode keys, sorted between themselves) before the
    # *parent* directory keys (likewise sorted).  This matches the
    # synchronous create/delete/mkdir paths in ops.py, which hold the
    # target inode lock while applying the parent update — i.e. every
    # participant acquires child before parent.  A flat global key sort
    # would order "D"-prefixed parent keys before "F"-prefixed file keys
    # (parent before child), the inverse of ops.py's discipline — a real
    # lock-order cycle against a concurrent sync-mode create (found by
    # ``repro analyze``'s cycle detector).  Within a level the sorted
    # order keeps concurrent renames deadlock-free against each other,
    # and cross-level safety holds because directory renames are globally
    # serialised by the coordinator while file targets are never parents.
    #
    # File renames in async mode lock only the two file inodes: the parent
    # fix-ups take the deferred change-log path (appended at commit on the
    # same servers, preserving per-name order against any pending
    # create/delete of the same names), so the hot parent inodes are never
    # locked — the whole point of asynchronous directory updates.
    lock_specs = {
        tuple(src_key): (src_owner, {"expect": True, "want_inode": not is_dir}),
        tuple(dst_key): (dst_owner, {"expect": False}),
    }
    target_keys = set(lock_specs)
    defer_parents = (not is_dir) and async_updates
    if not defer_parents:
        src_parent_key, dst_parent_key = args["src_parent_key"], args["dst_parent_key"]
        src_parent_owner = view.dir_owner(src_parent_key[1], src_parent_key[2], src_parent_path)
        dst_parent_owner = view.dir_owner(dst_parent_key[1], dst_parent_key[2], dst_parent_path)
        lock_specs.setdefault(tuple(src_parent_key), (src_parent_owner, {}))
        lock_specs.setdefault(tuple(dst_parent_key), (dst_parent_owner, {}))
    lock_order = sorted(target_keys) + sorted(set(lock_specs) - target_keys)
    locked_at = []
    failed_vote = None
    try:
        for key in lock_order:
            addr, extra = lock_specs[key]
            value, _ = yield from node.call(
                addr, "rename_lock",
                {"txn_id": txn_id, "key": list(key), **extra},
                timeout_us=perf.rpc_timeout_us, max_attempts=perf.rpc_max_attempts,
            )
            if addr not in locked_at:
                locked_at.append(addr)
            if not value["vote"]:
                failed_vote = value
                break
            if value.get("inode") is not None:
                src_inode = value["inode"]

        if failed_vote is None:
            # -- build the commit plan (all state known, all locks held) -----
            plan = _Plan()
            plan.delete(src_owner, src_key)
            moved = src_inode.moved(dst_pid, dst_name)
            if is_dir:
                plan.index_drop(src_owner, src_inode.id)
                plan.index(dst_owner, src_inode.id, dst_key)
                if src_owner != dst_owner:
                    # The entry list keys on the (permanent) dir id, so it
                    # migrates with the inode to the new fingerprint owner.
                    e_value, _ = yield from node.call(
                        src_owner, "read_inode_scan",
                        {"prefix": ["E", src_inode.id]},
                        timeout_us=perf.rpc_timeout_us,
                        max_attempts=perf.rpc_max_attempts,
                    )
                    for ekey, evalue in e_value["items"]:
                        plan.delete(src_owner, tuple(ekey))
                        plan.put(dst_owner, tuple(ekey), evalue)
            plan.put(dst_owner, dst_key, moved)
            if defer_parents:
                from .changelog import ChangeLogEntry, ChangeOp

                plan.async_entry(
                    src_owner, src_pid, args["src_parent_fp"],
                    ChangeLogEntry(timestamp=now, op=ChangeOp.DELETE,
                                   name=src_name, is_dir=False),
                )
                plan.async_entry(
                    dst_owner, dst_pid, args["dst_parent_fp"],
                    ChangeLogEntry(timestamp=now, op=ChangeOp.CREATE,
                                   name=dst_name, is_dir=False,
                                   perm=moved.perm),
                )
            else:
                plan.entry_op(
                    src_parent_owner, src_parent_key, src_pid, src_name,
                    add=False, is_dir=is_dir, ts=now,
                )
                plan.entry_op(
                    dst_parent_owner, dst_parent_key, dst_pid, dst_name,
                    add=True, is_dir=is_dir, ts=now,
                )
            for addr in locked_at:
                if addr not in plan.by_server:
                    plan._slot(addr)  # participant with locks but no ops

            # -- round 2: commits, in parallel (they cannot fail) ------------
            from ..sim import AllOf

            commit_procs = [
                sim.spawn(
                    node.call(
                        addr, "rename_commit",
                        {
                            "txn_id": txn_id,
                            "ops": slot["ops"],
                            "entry_ops": slot["entry_ops"],
                            "async_entries": slot["async_entries"],
                            "dir_index": slot["dir_index"],
                            "dir_index_drop": slot["dir_index_drop"],
                        },
                        timeout_us=perf.rpc_timeout_us,
                        max_attempts=perf.rpc_max_attempts,
                    ),
                    name="rename-commit",
                )
                for addr, slot in plan.by_server.items()
            ]
            yield AllOf(sim, commit_procs)
            return {"status": "ok"}
    except Exception:
        # Release every lock the transaction holds, then re-raise.
        for addr in locked_at:
            node.notify(addr, "rename_abort", {"txn_id": txn_id})
        raise
    for addr in locked_at:
        yield from node.call(
            addr, "rename_abort", {"txn_id": txn_id},
            timeout_us=perf.rpc_timeout_us, max_attempts=perf.rpc_max_attempts,
        )
    if failed_vote["exists"]:
        raise FSError(EEXIST, f"{dst_pid}/{dst_name}")
    raise FSError(ENOENT, f"{tuple(failed_vote['key'])}")
