"""Shared framework for the baseline distributed filesystems (§6.1).

The paper implements InfiniFS and CFS-KV from scratch on the same
storage/networking substrate as AsyncFS, so throughput differences come
from the *metadata scheme*, not engineering.  We do the same:
:class:`SyncMetadataServer` runs on the identical simulation kernel,
network, KV store, and performance model as SwitchFS, behind the same
:class:`~repro.core.client.LibFS` and the same cluster base — only the
partition strategy (a :class:`~repro.core.membership.Placement`) and the
(synchronous) update protocol differ.

Partition strategies (§2.2, Figure 1):

* :class:`PerFilePartition` — parent-children *separating* (CFS):
  balanced, but double-inode ops need cross-server transactions;
* :class:`GroupedPartition` — parent-children *grouping* (InfiniFS,
  IndexFS): double-inode file ops are local, but a directory's files all
  live on one server (hotspots);
* :class:`SubtreePartition` — Ceph-style: whole top-level subtrees on one
  server.

Synchronous update protocol: a double-inode op updates the parent
directory's inode *before returning*, under the parent's inode write lock
— cross-server it runs a two-phase (prepare/commit) exchange holding the
lock across both phases, which is the coordination overhead AsyncFS
hides.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Any, Dict, Generator, Optional, Tuple

from ..core.changelog import ChangeLogEntry, ChangeOp
from ..core.client import LibFS, split_path
from ..core.cluster import Cluster
from ..core.config import FSConfig
from ..core.errors import EEXIST, ENOENT, ENOTEMPTY, FSError, fs_error
from ..core.schema import (
    ROOT_ID,
    DirInode,
    FileInode,
    dir_meta_key,
    file_meta_key,
    fingerprint_of,
    new_dir_id,
    owner_of_file,
)
from ..core.server import ServerRuntime
from ..net import FaultModel, Network, PassthroughSwitch, RpcError, RpcRequest, single_rack_path
from ..sim import Simulator

__all__ = [
    "BaselinePartition",
    "PerFilePartition",
    "GroupedPartition",
    "SubtreePartition",
    "SyncMetadataServer",
    "BaselineClient",
    "BaselineCluster",
]


def _h(val: str) -> int:
    return int.from_bytes(hashlib.sha256(val.encode()).digest()[:8], "big")


class BaselinePartition:
    """A baseline's :class:`~repro.core.membership.Placement`: where its
    inodes and entry lists live.  Subclasses give ``file_owner`` and
    ``dir_owner``."""

    def __init__(self, num_servers: int):
        self.num_servers = num_servers

    def _addr(self, idx: int) -> str:
        return f"server-{idx % self.num_servers}"

    def root_owner(self) -> str:
        return self._addr(_h("root") % self.num_servers)

    def dir_id(self, pid: int, name: str, nonce: int) -> int:
        """Deterministic (*nonce* unused), so a grouped partition routes
        by a directory's id without resolving it first."""
        return new_dir_id(pid, name, 0)


class PerFilePartition(BaselinePartition):
    """CFS-style parent-children separating: hash every inode independently."""

    def file_owner(self, pid: int, name: str, dir_path: str) -> str:
        return self._addr(owner_of_file(pid, name, self.num_servers))

    def dir_owner(self, pid: int, name: str, path: str) -> str:
        if pid == 0:  # the root inode itself
            return self.root_owner()
        return self._addr(fingerprint_of(pid, name) % self.num_servers)


class GroupedPartition(BaselinePartition):
    """InfiniFS/IndexFS-style grouping: a directory's children (file inodes
    and entry list) colocate on the server hashed from the directory's id."""

    def file_owner(self, pid: int, name: str, dir_path: str) -> str:
        return self._addr(pid % self.num_servers)

    def dir_owner(self, pid: int, name: str, path: str) -> str:
        if pid == 0:
            return self.root_owner()
        return self._addr(self.dir_id(pid, name, 0) % self.num_servers)


class SubtreePartition(BaselinePartition):
    """Ceph-style static subtree partitioning: everything under one
    top-level directory lands on one server."""

    def _top(self, path: str) -> str:
        parts = path.lstrip("/").split("/")
        return parts[0] if parts and parts[0] else "/"

    def file_owner(self, pid: int, name: str, dir_path: str) -> str:
        return self._addr(_h(self._top(dir_path)) % self.num_servers)

    def dir_owner(self, pid: int, name: str, path: str) -> str:
        if pid == 0:
            return self.root_owner()
        return self._addr(_h(self._top(path)) % self.num_servers)


class SyncMetadataServer(ServerRuntime):
    """A metadata server with synchronous (transactional) updates.

    Runs on the exact :class:`~repro.core.server.ServerRuntime` substrate
    SwitchFS's :class:`~repro.core.server.MetadataServer` uses — CPU-core
    accounting, inode lock table, RPC plumbing, recovery gate, phase
    instrumentation, the parent-inode apply — and takes the requests the
    one :class:`~repro.core.client.LibFS` sends, so only the metadata
    scheme differs (§6.1).
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        addr: str,
        config: FSConfig,
        partition: BaselinePartition,
    ):
        ServerRuntime.__init__(self, sim, net, addr, config)
        self.partition = partition
        self.register_handlers(
            {
                "create": self._handle_create,
                "delete": self._handle_delete,
                "mkdir": self._handle_mkdir,
                "rmdir": self._handle_rmdir,
                "stat": self._handle_stat,
                "open": self._handle_stat,
                "close": self._handle_close,
                "statdir": self._handle_statdir,
                "readdir": self._handle_readdir,
                "lookup_dir": self._handle_lookup_dir,
                "parent_prepare": self._handle_parent_prepare,
                "parent_commit": self._handle_parent_commit,
                "put_inode": self._handle_put_inode,
                "delete_inode": self._handle_delete_inode,
                "read_inode": self._handle_read_inode,
            }
        )

    def install_root(self) -> None:
        if self.partition.root_owner() == self.addr:
            self.install_root_inode()

    # -- double-inode file ops --------------------------------------------
    def _handle_create(self, request: RpcRequest, packet) -> Generator:
        return (yield from self._file_double(request.args, create=True))

    def _handle_delete(self, request: RpcRequest, packet) -> Generator:
        return (yield from self._file_double(request.args, create=False))

    def _file_double(self, args: Dict[str, Any], create: bool) -> Generator:
        pid, name = args["pid"], args["name"]
        yield from self._wait_recovered()
        yield from self._net_penalty()
        yield self._cpu(self.perf.path_check_us)
        key = file_meta_key(pid, name)
        lock = yield from self._acquire(self._inode_lock(key), "w")
        try:
            yield self._cpu(self.perf.kv_get_us)
            exists = key in self.kv
            if create and exists:
                raise FSError(EEXIST, f"{pid}/{name}")
            if not create and not exists:
                raise FSError(ENOENT, f"{pid}/{name}")
            yield self._cpu(self.perf.wal_append_us)
            now = self.sim.now
            perm = args.get("perm", 0o644)
            yield self._cpu(self.perf.kv_put_us)
            if create:
                self.kv.put(key, FileInode(pid=pid, name=name, perm=perm, ctime=now, mtime=now))
            else:
                self.kv.delete(key)
            # Synchronous parent update before returning (the crux): the
            # inode lock is held across the parent-update RPC by design
            # (the measured legacy cost).
            op = ChangeOp.CREATE if create else ChangeOp.DELETE
            yield from self._update_parent_sync(  # reprolint: allow[RL103] child before parent: the parent update locks the parent's inode and nothing else
                args, key, ChangeLogEntry(now, op, name, perm=perm)
            )
            return {"status": "ok"}
        finally:
            self._release(lock, "w")

    def _parent_owner(self, args: Dict[str, Any]) -> str:
        """Where the parent of the op's target lives: the target's path and
        its parent's ancestry, which every request carries, name the parent
        to this server's partition."""
        parent_path, _ = split_path(args["path"])
        if parent_path == "/":
            return self.partition.root_owner()
        _, parent_name = split_path(parent_path)
        ancestors = args["ancestor_ids"]  # root excluded, the parent last
        grandparent_id = ancestors[-2] if len(ancestors) > 1 else ROOT_ID
        return self.partition.dir_owner(grandparent_id, parent_name, parent_path)

    def _update_parent_sync(
        self, args: Dict[str, Any], key: Tuple, entry: ChangeLogEntry
    ) -> Generator:
        """Apply *entry* to the parent of the inode at *key*, which the
        caller has just written or removed under its lock."""
        parent_id = args["pid"]
        owner = self._parent_owner(args)
        try:
            if owner == self.addr:
                yield from self._apply_parent(parent_id, entry)
                return
            # Cross-server: two-phase update holding the parent lock across
            # both phases (the distributed-transaction overhead of Table 2).
            self.counters.inc("cross_server_updates")
            update = {"parent_id": parent_id, "entry": entry}
            yield from self._call(owner, "parent_prepare", update)
            yield from self._call(owner, "parent_commit", update)
        except RpcError as exc:  # a remote ENOENT arrives as its wire string
            if entry.op.adds_entry and fs_error(str(exc)).code == ENOENT:
                # The parent is gone (a client's cache outlived it): the
                # inode written ahead of this update must not outlive the
                # ENOENT as an orphan no listing reaches.
                if entry.is_dir:
                    self._dir_index.pop(self.kv.get(key).id, None)
                self.kv.delete(key)
            raise

    def _handle_parent_prepare(self, request: RpcRequest, packet) -> Generator:
        yield from self._net_penalty()
        yield self._cpu(self.perf.txn_phase_us)
        parent_id = request.args["parent_id"]
        key = self._dir_index.get(parent_id)
        if key is None:
            raise FSError(ENOENT, f"directory {parent_id}")
        lock = yield from self._acquire(self._inode_lock(key), "w")  # until parent_commit
        # An rmdir may have held the lock this waited for: only a directory
        # still there once the lock is granted is prepared.
        if self._dir_index.get(parent_id) != key:
            self._release(lock, "w")
            raise FSError(ENOENT, f"directory {parent_id}")
        return {"status": "prepared"}

    def _handle_parent_commit(self, request: RpcRequest, packet) -> Generator:
        args = request.args
        yield from self._net_penalty()
        yield self._cpu(self.perf.txn_phase_us)
        # parent_prepare saw the directory with its lock held, and an rmdir
        # needs that lock: the directory is still there.
        key = self._dir_index[args["parent_id"]]
        try:
            yield from self._apply_parent(args["parent_id"], args["entry"], frozenset([key]))
        finally:
            self._release(self._inode_lock(key), "w")  # held since parent_prepare
        return {"status": "ok"}

    def _apply_parent(
        self, parent_id: int, entry: ChangeLogEntry, already_locked: frozenset = frozenset()
    ) -> Generator:
        """The shared apply, with a synchronous scheme's answer to a parent
        that is gone: its client is still waiting, so it is told."""
        applied = yield from self._apply_entry_with_inode_txn(parent_id, entry, already_locked)
        if not applied:
            raise FSError(ENOENT, f"directory {parent_id}")

    # -- directory ops ---------------------------------------------------------
    def _handle_mkdir(self, request: RpcRequest, packet) -> Generator:
        args = request.args
        pid, name = args["pid"], args["name"]
        yield from self._wait_recovered()
        yield from self._net_penalty()
        yield self._cpu(self.perf.path_check_us)
        key = dir_meta_key(pid, name)
        lock = yield from self._acquire(self._inode_lock(key), "w")
        try:
            yield self._cpu(self.perf.kv_get_us)
            if key in self.kv:
                raise FSError(EEXIST, f"{pid}/{name}")
            yield self._cpu(self.perf.wal_append_us + self.perf.kv_put_us)
            now = self.sim.now
            perm = args.get("perm", 0o755)
            inode = DirInode(
                id=self.partition.dir_id(pid, name, 0),
                pid=pid,
                name=name,
                fingerprint=fingerprint_of(pid, name),
                perm=perm,
                ctime=now,
                mtime=now,
            )
            self.kv.put(key, inode)
            self._dir_index[inode.id] = key
            # Held across the parent-update RPC by design, as in _file_double.
            yield from self._update_parent_sync(  # reprolint: allow[RL103] child before parent: the parent update locks the parent's inode and nothing else
                args, key, ChangeLogEntry(now, ChangeOp.MKDIR, name, is_dir=True, perm=perm)
            )
            return {"status": "ok", "id": inode.id}
        finally:
            self._release(lock, "w")

    def _handle_rmdir(self, request: RpcRequest, packet) -> Generator:
        args = request.args
        pid, name = args["pid"], args["name"]
        yield from self._wait_recovered()
        yield from self._net_penalty()
        yield self._cpu(self.perf.path_check_us)
        key = dir_meta_key(pid, name)
        lock = yield from self._acquire(self._inode_lock(key), "w")
        try:
            yield self._cpu(self.perf.kv_get_us)
            inode = self.kv.get_or_none(key)
            if inode is None:
                raise FSError(ENOENT, f"{pid}/{name}")
            # The entry list is maintained by the synchronous parent-update
            # path, which always runs on the directory's owner — i.e. here.
            count = self.kv.count_prefix(("E", inode.id))
            if inode.entry_count > 0 or count > 0:
                raise FSError(ENOTEMPTY, f"{pid}/{name}")
            yield self._cpu(self.perf.wal_append_us + self.perf.kv_put_us)
            self.kv.delete(key)
            self._dir_index.pop(inode.id, None)
            # Held across the parent-update RPC by design, as in _file_double.
            yield from self._update_parent_sync(  # reprolint: allow[RL103] child before parent: the parent update locks the parent's inode and nothing else
                args, key, ChangeLogEntry(self.sim.now, ChangeOp.RMDIR, name, is_dir=True)
            )
            return {"status": "ok"}
        finally:
            self._release(lock, "w")

    # -- reads -----------------------------------------------------------------
    def _handle_stat(self, request: RpcRequest, packet) -> Generator:
        args = request.args
        yield from self._wait_recovered()
        yield from self._net_penalty()
        yield self._cpu(self.perf.path_check_us)
        key = file_meta_key(args["pid"], args["name"])
        lock = yield from self._acquire(self._inode_lock(key), "r")
        try:
            yield self._cpu(self.perf.kv_get_us)
            inode = self.kv.get_or_none(key)
            if inode is None:
                raise FSError(ENOENT, f"{args['pid']}/{args['name']}")
            return {"perm": inode.perm, "size": inode.size, "mtime": inode.mtime}
        finally:
            self._release(lock, "r")

    def _handle_close(self, request: RpcRequest, packet) -> Generator:
        yield from self._wait_recovered()
        yield from self._net_penalty()
        yield self._cpu(self.perf.path_check_us)
        return {"status": "ok"}

    def _handle_statdir(self, request: RpcRequest, packet) -> Generator:
        args = request.args
        yield from self._wait_recovered()
        yield from self._net_penalty()
        yield self._cpu(self.perf.path_check_us)
        key = dir_meta_key(args["pid"], args["name"])
        lock = yield from self._acquire(self._inode_lock(key), "r")
        try:
            yield self._cpu(self.perf.kv_get_us)
            inode = self.kv.get_or_none(key)
            if inode is None:
                raise FSError(ENOENT, f"{args['pid']}/{args['name']}")
            return {"id": inode.id, "mtime": inode.mtime, "entry_count": inode.entry_count}
        finally:
            self._release(lock, "r")

    def _handle_readdir(self, request: RpcRequest, packet) -> Generator:
        value = yield from self._handle_statdir(request, packet)
        dir_id = value["id"]
        # Entries colocate with the directory inode (the parent-update path
        # always runs here), so the listing is a local prefix scan.
        names = [k[2] for k, _ in self.kv.scan_prefix(("E", dir_id))]
        yield self._cpu(self.perf.readdir_per_entry_us * max(1, len(names)))
        return {"id": dir_id, "entries": names, "entry_count": value["entry_count"]}

    def _handle_lookup_dir(self, request: RpcRequest, packet) -> Generator:
        args = request.args
        yield from self._wait_recovered()
        yield from self._net_penalty()
        yield self._cpu(self.perf.kv_get_us)
        inode = self.kv.get_or_none(dir_meta_key(args["pid"], args["name"]))
        if inode is None:
            raise FSError(ENOENT, f"{args['pid']}/{args['name']}")
        return {"id": inode.id, "fingerprint": inode.fingerprint, "perm": inode.perm}

    # -- raw helpers (the client-driven rename) ---------------------------------
    def _handle_read_inode(self, request: RpcRequest, packet) -> Generator:
        args = request.args
        yield self._cpu(self.perf.kv_get_us)
        inode = self.kv.get_or_none(tuple(args["key"]))
        if inode is None:
            raise FSError(ENOENT, str(args["key"]))
        return {"inode": inode}

    def _handle_put_inode(self, request: RpcRequest, packet) -> Generator:
        yield self._cpu(self.perf.kv_put_us + self.perf.wal_append_us)
        self.kv.put(tuple(request.args["key"]), request.args["value"])
        return {"status": "ok"}

    def _handle_delete_inode(self, request: RpcRequest, packet) -> Generator:
        yield self._cpu(self.perf.kv_put_us)
        self.kv.delete(tuple(request.args["key"]))
        return {"status": "ok"}


class BaselineClient(LibFS):
    """LibFS with what a baseline's wire protocol changes: an ``rmdir``
    that need not resolve its target and a client-driven synchronous
    ``rename``.  (Its cluster's config is why it sends no stale-set
    headers.)"""

    def rmdir(self, path: str) -> Generator:
        # The directory's owner follows from the parent's id and the name,
        # and the server needs neither the target's id nor its fingerprint:
        # no resolve of the target, where SwitchFS's client must.
        parent_path, name = split_path(path)
        parent = yield from self.resolve_dir(parent_path)
        owner = self._view.dir_owner(parent.id, name, path)
        args = {
            "pid": parent.id,
            "name": name,
            "ancestor_ids": parent.ancestor_ids,
            "path": path,
        }
        value, _ = yield from self._call(owner, "rmdir", args)
        self._cache.pop(path, None)
        return value

    def rename(self, src: str, dst: str) -> Generator:
        """Synchronous rename: move the inode, fix both parents (4+ RPCs)."""
        src_parent_path, src_name = split_path(src)
        dst_parent_path, dst_name = split_path(dst)
        src_parent = yield from self.resolve_dir(src_parent_path)
        dst_parent = yield from self.resolve_dir(dst_parent_path)
        src_owner = self._view.file_owner(src_parent.id, src_name, src_parent_path)
        dst_owner = self._view.file_owner(dst_parent.id, dst_name, dst_parent_path)
        src_key = file_meta_key(src_parent.id, src_name)
        value, _ = yield from self._call(src_owner, "read_inode", {"key": list(src_key)})
        moved = replace(value["inode"], pid=dst_parent.id, name=dst_name)
        dst_key = file_meta_key(dst_parent.id, dst_name)
        yield from self._call(dst_owner, "put_inode", {"key": list(dst_key), "value": moved})  # reprolint: allow[RL104] a partition is static: no epoch for the owner to outlive
        yield from self._call(src_owner, "delete_inode", {"key": list(src_key)})  # reprolint: allow[RL104] a partition is static: no epoch for the owner to outlive
        # Parent fix-ups reuse the create/delete parent-update handlers.
        for parent, parent_path, name, op in (
            (src_parent, src_parent_path, src_name, ChangeOp.DELETE),
            (dst_parent, dst_parent_path, dst_name, ChangeOp.CREATE),
        ):
            owner = self._view.dir_owner(parent.pid, parent.name, parent_path)
            update = {"parent_id": parent.id, "entry": ChangeLogEntry(self.sim.now, op, name)}
            yield from self._call(owner, "parent_prepare", update)
            yield from self._call(owner, "parent_commit", update)  # reprolint: allow[RL104] a partition is static: no epoch for the owner to outlive
        return {"status": "ok"}


class BaselineCluster(Cluster):
    """A baseline DFS deployment: the shared cluster base over a
    forwarding switch, :class:`SyncMetadataServer` and a partition."""

    client_cls = BaselineClient

    def __init__(
        self,
        config: FSConfig,
        partition_cls=PerFilePartition,
        faults: Optional[FaultModel] = None,
    ):
        # A baseline's switch forwards and nothing else: with the stale set
        # declared out of it, no client sends a QUERY or a LOOKUP header.
        config = replace(config, stale_backend="server", switch_cache=False)
        Cluster.__init__(self, config)
        self.placement = partition_cls(config.num_servers)
        self.net = Network(
            self.sim,
            single_rack_path([PassthroughSwitch(latency_us=config.perf.switch_latency_us)]),
            link_latency_us=config.perf.link_latency_us,
            faults=faults,
        )
        self.servers = [
            SyncMetadataServer(
                self.sim, self.net, config.server_addr(i), config, self.placement
            )
            for i in range(config.num_servers)
        ]
        for server in self.servers:
            server.install_root()
