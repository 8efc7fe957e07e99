"""Read workflows (§4.2.2): directory reads, single-inode reads, and the
raw reads the rename coordinator uses.

Directory reads (``statdir``/``readdir``) arrive with a ``QUERY``
stale-set header whose RET bit the switch filled in (or, with the
server backend, after an explicit stale-set query).  A *scattered*
directory triggers a metadata aggregation — see
:mod:`repro.core.server.aggregation` — before the inode is served, so
every read observes all completed updates (Property 1).
"""

from __future__ import annotations

from typing import Generator

from ...net import Packet, Reply, RpcRequest, StaleSetHeader, StaleSetOp
from ...errors import ENOENT, FSError
from ..schema import dir_meta_key, file_meta_key, fingerprint_of

__all__ = ["ReadOps"]


def _fill_on_lookup(packet: Packet, value: dict):
    """The reply to a single-inode read of *value*.

    A LOOKUP-headed request asked the dentry cache first and missed:
    attach a FILL so the switch installs the reply on the return path.
    The caller returns this straight after its kv read — no yield
    separates that read from the reply send in _serve, so the filled line
    is exactly the value the read returned (DESIGN.md §15 invariant I1).
    """
    header = packet.header
    if header is not None and header.op == StaleSetOp.LOOKUP:
        return Reply(
            value=value,
            header=StaleSetHeader(op=StaleSetOp.FILL, fingerprint=header.fingerprint),
        )
    return value


class ReadOps:
    """Mixin: read-side RPC handlers."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # directory reads: statdir / readdir (Figure 4, orange)
    # ------------------------------------------------------------------
    def _handle_statdir(self, request: RpcRequest, packet: Packet) -> Generator:
        inode = yield from self._read_dir_inode(request, packet)
        return {
            "id": inode.id,
            "mtime": inode.mtime,
            "entry_count": inode.entry_count,
            "perm": inode.perm,
        }

    def _handle_readdir(self, request: RpcRequest, packet: Packet) -> Generator:
        inode = yield from self._read_dir_inode(request, packet)
        names = [key[2] for key, _ in self.kv.scan_prefix(("E", inode.id))]
        yield self._cpu(self.perf.readdir_per_entry_us * max(1, len(names)))
        return {"id": inode.id, "entries": names, "entry_count": inode.entry_count}

    def _read_dir_inode(self, request: RpcRequest, packet: Packet) -> Generator:
        args = request.args
        pid, name, fp = args["pid"], args["name"], args["fp"]
        if self._recovered_ev is not None:  # inline _wait_recovered
            yield self._recovered_ev
        perf = self.perf
        # A synchronous scheme scatters nothing: its reads ask no stale set
        # and pay no aggregation check.  Checking for in-flight
        # aggregations on the group costs a little even in the common
        # (normal-state) case — the statdir premium the paper reports in
        # §6.2.2.  With the switch backend it runs with the path check; a
        # stale-set-server query is a blocking point between the two.
        asynchronous, ss = self.config.async_updates, self.ss
        cost = perf.path_check_us
        if asynchronous and ss is None:
            cost += perf.agg_check_us
        yield self._cpu(cost)
        self._check_valid(args)
        self._check_owner_dir(fp)

        if asynchronous:
            # Directory state comes from the switch (RET bit on the request)
            # or from an explicit stale-set-server query.
            if ss is not None:
                scattered = yield from ss.query(fp)
                yield self._cpu(perf.agg_check_us)
            else:
                scattered = bool(packet.header is not None and packet.header.ret)
            yield from self._wait_group_unblocked(fp)
            if scattered:
                yield from self._aggregate_group(fp)

        key = dir_meta_key(pid, name)
        lock = yield from self._acquire(self._inode_lock(key), "r")
        try:
            yield self._cpu(perf.kv_get_us)
            inode = self.kv.get_or_none(key)
            if inode is None:
                # Parked across a cutover, the read finds the inode shipped
                # away: send the client to the new owner, not ENOENT.
                self._check_owner_dir(fp)
                raise FSError(ENOENT, f"{pid}/{name}")
            return inode
        finally:
            self._release(lock, "r")

    # ------------------------------------------------------------------
    # single-inode operations
    # ------------------------------------------------------------------
    # Plain functions returning the workflow generator: one less frame on
    # every resume (`_serve` drives the returned generator directly).
    def _handle_stat(self, request: RpcRequest, packet: Packet) -> Generator:
        return self._read_file_inode(request, packet)

    def _handle_open(self, request: RpcRequest, packet: Packet) -> Generator:
        return self._read_file_inode(request, packet)

    def _handle_close(self, request: RpcRequest, packet: Packet) -> Generator:
        yield from self._wait_recovered()
        yield self._cpu(self.perf.path_check_us)
        return {"status": "ok"}

    def _read_file_inode(self, request: RpcRequest, packet: Packet) -> Generator:
        args = request.args
        pid, name = args["pid"], args["name"]
        perf = self.perf
        if self._recovered_ev is not None:  # inline _wait_recovered
            yield self._recovered_ev
        # The lock wait is the one blocking point: after it, one run of CPU.
        key = file_meta_key(pid, name)
        lock = yield from self._acquire(self._inode_lock(key), "r")
        try:
            yield self._cpu(perf.path_check_us + perf.kv_get_us)
            self._check_valid(args)
            self._check_owner_file(pid, name)
            inode = self.kv.get_or_none(key)
            if inode is None:
                raise FSError(ENOENT, f"{pid}/{name}")
            value = {
                "pid": inode.pid,
                "name": inode.name,
                "perm": inode.perm,
                "size": inode.size,
                "mtime": inode.mtime,
            }
            return _fill_on_lookup(packet, value)
        finally:
            self._release(lock, "r")

    def _handle_lookup_dir(self, request: RpcRequest, packet: Packet) -> Generator:
        """Path-resolution lookup: directory id + permissions by (pid, name)."""
        args = request.args
        pid, name = args["pid"], args["name"]
        yield from self._wait_recovered()
        self._check_owner_dir(fingerprint_of(pid, name))
        yield self._cpu(self.perf.kv_get_us)
        inode = self.kv.get_or_none(dir_meta_key(pid, name))
        if inode is None:
            raise FSError(ENOENT, f"{pid}/{name}")
        value = {"id": inode.id, "fingerprint": inode.fingerprint, "perm": inode.perm}
        return _fill_on_lookup(packet, value)

    def _handle_get_membership(self, request: RpcRequest, packet: Packet) -> Generator:
        """Serve the current membership view (epoch refresh protocol).

        Deliberately *not* gated on the recovery event: clients chasing a
        ``WrongEpoch`` redirect must be able to learn the new view even
        while the cluster is mid-migration, and retired servers keep
        answering so stale views always have a reachable refresh source.
        """
        yield self._cpu(self.perf.kv_get_us)
        return {"view": self.membership.current}

    def _handle_read_inode(self, request: RpcRequest, packet: Packet) -> Generator:
        """Raw inode read used by the rename coordinator."""
        args = request.args
        yield self._cpu(self.perf.kv_get_us)
        inode = self.kv.get_or_none(args["key"])
        if inode is None:
            raise FSError(ENOENT, str(args["key"]))
        return {"inode": inode}

    def _handle_read_inode_scan(self, request: RpcRequest, packet: Packet) -> Generator:
        """Prefix scan used by the rename coordinator to migrate entry lists."""
        items = list(self.kv.scan_prefix(request.args["prefix"]))
        yield self._cpu(self.perf.readdir_per_entry_us * max(1, len(items)))
        return {"items": items}
