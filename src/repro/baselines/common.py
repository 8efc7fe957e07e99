"""Shared framework for the baseline distributed filesystems (§6.1).

The paper implements InfiniFS and CFS-KV from scratch on the same
storage/networking substrate as AsyncFS, so throughput differences come
from the *metadata scheme*, not engineering.  We do the same:
:class:`SyncMetadataServer` + :class:`BaselineClient` run on the identical
simulation kernel, network, KV store, and performance model as SwitchFS —
only the partition strategy and the (synchronous) update protocol differ.

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

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..core.client import ResolvedDir, split_path
from ..core.config import FSConfig, PerfModel
from ..core.errors import EEXIST, ENOENT, ENOTEMPTY, FSError, fs_error
from ..core.schema import (
    DirEntry,
    DirInode,
    FileInode,
    ROOT_ID,
    dir_entry_key,
    dir_meta_key,
    file_meta_key,
    fingerprint_of,
    new_dir_id,
    owner_of_file,
    root_inode,
)
from ..core.server import ServerRuntime
from ..net import (
    FaultModel,
    Network,
    PassthroughSwitch,
    RpcError,
    RpcNode,
    RpcRequest,
    single_rack_path,
)
from ..sim import Counter, Simulator

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
    import hashlib

    return int.from_bytes(hashlib.sha256(val.encode()).digest()[:8], "big")


class BaselinePartition:
    """Routing interface: where inodes and entry lists live."""

    name = "abstract"

    def __init__(self, num_servers: int):
        self.num_servers = num_servers

    def _addr(self, idx: int) -> str:
        return f"server-{idx % self.num_servers}"

    def file_owner(self, pid: int, name: str, dir_path: str) -> str:
        raise NotImplementedError

    def dir_owner(self, pid: int, name: str, path: str) -> str:
        raise NotImplementedError

    def dir_owner_root(self) -> str:
        return self._addr(_h("root") % self.num_servers)


class PerFilePartition(BaselinePartition):
    """CFS-style parent-children separating: hash every inode independently."""

    name = "per-file"

    def file_owner(self, pid: int, name: str, dir_path: str) -> str:
        return self._addr(owner_of_file(pid, name, self.num_servers))

    def dir_owner(self, pid: int, name: str, path: str) -> str:
        return self._addr(fingerprint_of(pid, name) % self.num_servers)


class GroupedPartition(BaselinePartition):
    """InfiniFS/IndexFS-style grouping: a directory's children (file inodes
    and entry list) colocate on the server hashed from the directory's id.

    Directory ids are deterministic (``new_dir_id(pid, name, 0)``) so
    clients can route without resolving the id first.
    """

    name = "grouped"

    def file_owner(self, pid: int, name: str, dir_path: str) -> str:
        return self._addr(pid % self.num_servers)

    def dir_owner(self, pid: int, name: str, path: str) -> str:
        if pid == 0:  # the root inode itself
            return self.dir_owner_root()
        dir_id = new_dir_id(pid, name, 0)
        return self._addr(dir_id % self.num_servers)


class SubtreePartition(BaselinePartition):
    """Ceph-style static subtree partitioning: everything under one
    top-level directory lands on one server."""

    name = "subtree"

    def _top(self, path: str) -> str:
        parts = path.lstrip("/").split("/")
        return parts[0] if parts and parts[0] else "/"

    def file_owner(self, pid: int, name: str, dir_path: str) -> str:
        return self._addr(_h(self._top(dir_path)) % self.num_servers)

    def dir_owner(self, pid: int, name: str, path: str) -> str:
        if pid == 0:
            return self.dir_owner_root()
        return self._addr(_h(self._top(path)) % self.num_servers)


class SyncMetadataServer(ServerRuntime):
    """A metadata server with synchronous (transactional) updates.

    Runs on the exact :class:`~repro.core.server.ServerRuntime` substrate
    SwitchFS's :class:`~repro.core.server.MetadataServer` uses — CPU-core
    accounting, inode lock table, RPC plumbing, recovery gate, phase
    instrumentation — so only the metadata scheme differs (§6.1).
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
        if self.partition.dir_owner_root() == self.addr:
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
            yield self._cpu(self.perf.kv_put_us)
            if create:
                self.kv.put(key, FileInode(pid=pid, name=name, ctime=now, mtime=now))
            else:
                self.kv.delete(key)
            # Synchronous parent update before returning (the crux): the
            # inode lock is held across the parent-update RPC by design
            # (the measured legacy cost).
            yield from self._update_parent_sync(  # reprolint: allow[RL103] child before parent: the parent update locks the parent's inode and nothing else
                parent_owner=args["parent_owner"],
                parent_key=tuple(args["parent_key"]),
                parent_id=pid,
                entry_name=name,
                add=create,
                is_dir=False,
                now=now,
            )
            return {"status": "ok"}
        finally:
            self._release(lock, "w")

    def _update_parent_sync(
        self,
        parent_owner: str,
        parent_key: Tuple,
        parent_id: int,
        entry_name: str,
        add: bool,
        is_dir: bool,
        now: float,
    ) -> Generator:
        spec = {
            "parent_key": list(parent_key),
            "parent_id": parent_id,
            "entry_name": entry_name,
            "add": add,
            "is_dir": is_dir,
            "ts": now,
        }
        if parent_owner == self.addr:
            yield from self._apply_parent_local(spec)
            return
        # Cross-server: two-phase update holding the parent lock across
        # both phases (the distributed-transaction overhead of Table 2).
        self.counters.inc("cross_server_updates")
        yield from self._call(parent_owner, "parent_prepare", spec)
        yield from self._call(parent_owner, "parent_commit", spec)

    def _handle_parent_prepare(self, request: RpcRequest, packet) -> Generator:
        spec = request.args
        yield from self._net_penalty()
        yield self._cpu(self.perf.txn_phase_us)
        key = tuple(spec["parent_key"])
        yield from self._acquire(self._inode_lock(key), "w")  # until parent_commit
        return {"status": "prepared"}

    def _handle_parent_commit(self, request: RpcRequest, packet) -> Generator:
        spec = request.args
        yield from self._net_penalty()
        yield self._cpu(self.perf.txn_phase_us)
        key = tuple(spec["parent_key"])
        try:
            yield from self._apply_parent_inode(spec, locked=True)
        finally:
            self._release(self._inode_lock(key), "w")  # held since parent_prepare
        return {"status": "ok"}

    def _apply_parent_local(self, spec: Dict[str, Any]) -> Generator:
        key = tuple(spec["parent_key"])
        lock = yield from self._acquire(self._inode_lock(key), "w")
        try:
            yield from self._apply_parent_inode(spec, locked=True)
        finally:
            self._release(lock, "w")

    def _apply_parent_inode(self, spec: Dict[str, Any], locked: bool) -> Generator:
        yield self._cpu(self.perf.dir_inode_update_us + self.perf.dir_entry_put_us)
        key = tuple(spec["parent_key"])
        inode = self.kv.get_or_none(key)
        if inode is None:
            raise FSError(ENOENT, str(key))
        ekey = dir_entry_key(spec["parent_id"], spec["entry_name"])
        present = ekey in self.kv
        if spec["add"]:
            self.kv.put(ekey, DirEntry(is_dir=spec["is_dir"], perm=0o644))
            delta = 0 if present else 1
        else:
            delta = -1 if present else 0
            if present:
                self.kv.delete(ekey)
        self.kv.put(key, inode.touched(spec["ts"], delta))

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
            inode = DirInode(
                id=new_dir_id(pid, name, 0),
                pid=pid,
                name=name,
                fingerprint=fingerprint_of(pid, name),
                ctime=now,
                mtime=now,
            )
            self.kv.put(key, inode)
            self._dir_index[inode.id] = key
            # Held across the parent-update RPC by design, as in _file_double.
            yield from self._update_parent_sync(  # reprolint: allow[RL103] child before parent: the parent update locks the parent's inode and nothing else
                parent_owner=args["parent_owner"],
                parent_key=tuple(args["parent_key"]),
                parent_id=pid,
                entry_name=name,
                add=True,
                is_dir=True,
                now=now,
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
                parent_owner=args["parent_owner"],
                parent_key=tuple(args["parent_key"]),
                parent_id=pid,
                entry_name=name,
                add=False,
                is_dir=True,
                now=self.sim.now,
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

    # -- raw helpers (rename, remote scans) ------------------------------------
    def _handle_read_inode(self, request: RpcRequest, packet) -> Generator:
        args = request.args
        yield self._cpu(self.perf.kv_get_us)
        if args.get("count_prefix"):
            return {"count": self.kv.count_prefix(tuple(args["count_prefix"]))}
        if args.get("scan_prefix"):
            items = list(self.kv.scan_prefix(tuple(args["scan_prefix"])))
            return {"items": [(list(k), v) for k, v in items]}
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


class BaselineClient:
    """LibFS-alike for baseline systems: same POSIX surface, sync protocol."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        addr: str,
        config: FSConfig,
        partition: BaselinePartition,
    ):
        self.sim = sim
        self.config = config
        self.perf = config.perf
        self.partition = partition
        self.node = RpcNode(sim, net, addr)
        self.counters = Counter()
        root = root_inode()
        self._root = ResolvedDir(
            id=root.id, fingerprint=root.fingerprint, pid=root.pid,
            name=root.name, perm=root.perm, ancestor_ids=(),
        )
        self._cache: Dict[str, ResolvedDir] = {}

    def prime_cache(self, path: str, resolved: ResolvedDir) -> None:
        """Pre-populate the metadata cache (bootstrap/warm-up helper)."""
        self._cache[path] = resolved

    # -- resolution ---------------------------------------------------------
    def resolve_dir(self, path: str) -> Generator:
        if path == "/":
            yield self.sim.timeout(self.perf.cache_lookup_us)
            return self._root
        cached = self._cache.get(path)
        if cached is not None:
            yield self.sim.timeout(self.perf.cache_lookup_us)
            return cached
        parent_path, name = split_path(path)
        parent = yield from self.resolve_dir(parent_path)
        owner = self.partition.dir_owner(parent.id, name, path)
        value = yield from self._call(owner, "lookup_dir", {"pid": parent.id, "name": name})
        resolved = ResolvedDir(
            id=value["id"], fingerprint=value["fingerprint"], pid=parent.id,
            name=name, perm=value["perm"],
            ancestor_ids=parent.ancestor_ids + (value["id"],),
        )
        self._cache[path] = resolved
        return resolved

    def _call(self, dst: str, method: str, args) -> Generator:
        yield self.sim.timeout(self.perf.client_cpu_us)
        try:
            value, _ = yield from self.node.call(
                dst, method, args,
                timeout_us=self.perf.rpc_timeout_us,
                max_attempts=self.perf.rpc_max_attempts,
            )
            return value
        except FSError:
            raise
        except RpcError as exc:
            raise fs_error(str(exc)) from exc

    def _parent_fields(self, parent: ResolvedDir, path: str) -> Dict[str, Any]:
        parent_path, _ = split_path(path)
        if parent.pid == 0:
            owner = self.partition.dir_owner_root()
        else:
            owner = self.partition.dir_owner(parent.pid, parent.name, parent_path)
        return {"parent_owner": owner, "parent_key": ["D", parent.pid, parent.name]}

    # -- POSIX surface -----------------------------------------------------
    def create(self, path: str, perm: int = 0o644) -> Generator:
        return (yield from self._double("create", path))

    def delete(self, path: str) -> Generator:
        return (yield from self._double("delete", path))

    def _double(self, method: str, path: str) -> Generator:
        parent_path, name = split_path(path)
        parent = yield from self.resolve_dir(parent_path)
        owner = self.partition.file_owner(parent.id, name, parent_path)
        args = {"pid": parent.id, "name": name, "path": path,
                **self._parent_fields(parent, path)}
        return (yield from self._call(owner, method, args))

    def mkdir(self, path: str, perm: int = 0o755) -> Generator:
        parent_path, name = split_path(path)
        parent = yield from self.resolve_dir(parent_path)
        owner = self.partition.dir_owner(parent.id, name, path)
        args = {"pid": parent.id, "name": name, "path": path,
                **self._parent_fields(parent, path)}
        return (yield from self._call(owner, "mkdir", args))

    def rmdir(self, path: str) -> Generator:
        parent_path, name = split_path(path)
        parent = yield from self.resolve_dir(parent_path)
        owner = self.partition.dir_owner(parent.id, name, path)
        args = {"pid": parent.id, "name": name, "path": path,
                **self._parent_fields(parent, path)}
        value = yield from self._call(owner, "rmdir", args)
        self._cache.pop(path, None)
        return value

    def stat(self, path: str) -> Generator:
        return (yield from self._single("stat", path))

    def open(self, path: str) -> Generator:
        return (yield from self._single("open", path))

    def close(self, path: str) -> Generator:
        return (yield from self._single("close", path))

    def _single(self, method: str, path: str) -> Generator:
        parent_path, name = split_path(path)
        parent = yield from self.resolve_dir(parent_path)
        owner = self.partition.file_owner(parent.id, name, parent_path)
        args = {"pid": parent.id, "name": name, "path": path}
        return (yield from self._call(owner, method, args))

    def statdir(self, path: str) -> Generator:
        return (yield from self._dirread("statdir", path))

    def readdir(self, path: str) -> Generator:
        return (yield from self._dirread("readdir", path))

    def _dirread(self, method: str, path: str) -> Generator:
        parent_path, name = split_path(path)
        parent = yield from self.resolve_dir(parent_path)
        owner = self.partition.dir_owner(parent.id, name, path)
        args = {"pid": parent.id, "name": name, "path": path}
        return (yield from self._call(owner, method, args))

    def rename(self, src: str, dst: str) -> Generator:
        """Synchronous rename: move the inode, fix both parents (4+ RPCs)."""
        src_parent_path, src_name = split_path(src)
        dst_parent_path, dst_name = split_path(dst)
        src_parent = yield from self.resolve_dir(src_parent_path)
        dst_parent = yield from self.resolve_dir(dst_parent_path)
        src_owner = self.partition.file_owner(src_parent.id, src_name, src_parent_path)
        dst_owner = self.partition.file_owner(dst_parent.id, dst_name, dst_parent_path)
        src_key = file_meta_key(src_parent.id, src_name)
        value = yield from self._call(src_owner, "read_inode", {"key": list(src_key)})
        inode = value["inode"]
        import dataclasses

        moved = dataclasses.replace(inode, pid=dst_parent.id, name=dst_name)
        dst_key = file_meta_key(dst_parent.id, dst_name)
        yield from self._call(dst_owner, "put_inode", {"key": list(dst_key), "value": moved})
        yield from self._call(src_owner, "delete_inode", {"key": list(src_key)})
        # Parent fix-ups reuse the create/delete parent-update handlers.
        for parent, name_, add, path_ in (
            (src_parent, src_name, False, src),
            (dst_parent, dst_name, True, dst),
        ):
            fields = self._parent_fields(parent, path_)
            spec = {
                "parent_key": fields["parent_key"],
                "parent_id": parent.id,
                "entry_name": name_,
                "add": add,
                "is_dir": False,
                "ts": self.sim.now,
            }
            yield from self._call(fields["parent_owner"], "parent_prepare", spec)
            yield from self._call(fields["parent_owner"], "parent_commit", spec)
        return {"status": "ok"}


class BaselineCluster:
    """A baseline DFS deployment with the same interface as SwitchFSCluster."""

    system_name = "baseline"

    def __init__(
        self,
        config: FSConfig,
        partition_cls=PerFilePartition,
        faults: Optional[FaultModel] = None,
    ):
        self.config = config
        self.sim = Simulator()
        self.partition = partition_cls(config.num_servers)
        self.net = Network(
            self.sim,
            single_rack_path([PassthroughSwitch(latency_us=config.perf.switch_latency_us)]),
            link_latency_us=config.perf.link_latency_us,
            faults=faults,
        )
        self.servers: List[SyncMetadataServer] = [
            SyncMetadataServer(
                self.sim, self.net, config.server_addr(i), config, self.partition
            )
            for i in range(config.num_servers)
        ]
        for server in self.servers:
            server.install_root()
        self._clients: Dict[int, BaselineClient] = {}

    def client(self, idx: int = 0) -> BaselineClient:
        fs = self._clients.get(idx)
        if fs is None:
            fs = BaselineClient(
                self.sim, self.net, self.config.client_addr(idx), self.config, self.partition
            )
            self._clients[idx] = fs
        return fs

    def server_by_addr(self, addr: str) -> SyncMetadataServer:
        for server in self.servers:
            if server.addr == addr:
                return server
        raise KeyError(addr)

    def run_op(self, gen: Generator, until: Optional[float] = None):
        proc = self.sim.spawn(gen, name="op")
        return self.sim.run_process(proc, until=until)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)
