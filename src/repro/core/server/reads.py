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
        args = request.args
        start_after, limit = args.get("start_after"), args.get("limit")
        next_token = None
        if start_after is None and limit is None:
            names = [key[2] for key, _ in self.kv.scan_prefix(("E", inode.id))]
        else:
            # Paginated listing: resume strictly after the client's token
            # (the scan's start bound is inclusive, so over-fetch covers
            # the token itself plus one look-ahead for next-page detection).
            fetch = None
            if limit is not None:
                fetch = limit + 1 + (1 if start_after is not None else 0)
            names = [
                key[2]
                for key, _ in self.kv.scan_prefix(
                    ("E", inode.id),
                    start=None if start_after is None else (start_after,),
                    limit=fetch,
                )
            ]
            if start_after is not None and names and names[0] == start_after:
                names = names[1:]
            if limit is not None and len(names) > limit:
                names = names[:limit]
                next_token = names[-1] if names else None
        yield self._cpu(self.perf.readdir_per_entry_us * max(1, len(names)))
        result = {"id": inode.id, "entries": names, "entry_count": inode.entry_count}
        if next_token is not None:
            result["next"] = next_token
        return result

    def _read_dir_inode(self, request: RpcRequest, packet: Packet) -> Generator:
        args = request.args
        pid, name, fp = args["pid"], args["name"], args["fp"]
        if self._recovered_ev is not None:  # inline _wait_recovered
            yield self._recovered_ev
        yield self._cpu(self.perf.path_check_us)
        self._check_valid(args)
        self._check_owner_dir(fp)

        # A synchronous scheme scatters nothing: its reads ask no stale set
        # and pay no aggregation check.
        if self.config.async_updates:
            # Directory state comes from the switch (RET bit on the request)
            # or from an explicit stale-set-server query.
            if self.ss is not None:
                scattered = yield from self.ss.query(fp)
            else:
                scattered = bool(packet.header is not None and packet.header.ret)

            # Checking for in-flight aggregations on the group costs a little
            # even in the common (normal-state) case — the statdir premium
            # the paper reports in §6.2.2.
            yield self._cpu(self.perf.agg_check_us)
            yield from self._wait_group_unblocked(fp)
            if scattered:
                self.counters.inc("read_triggered_aggregations")
                yield from self._aggregate_group(fp)

        key = dir_meta_key(pid, name)
        lock = yield from self._acquire(self._inode_lock(key), "r")
        try:
            yield self._cpu(self.perf.kv_get_us)
            inode = self.kv.get_or_none(key)
            if inode is None:
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
        yield self._cpu(perf.path_check_us)
        self._check_valid(args)
        self._check_owner_file(pid, name)
        key = file_meta_key(pid, name)
        lock = yield from self._acquire(self._inode_lock(key), "r")
        try:
            yield self._cpu(perf.kv_get_us)
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
        return {"view": self.membership.current.to_wire()}

    def _handle_read_inode(self, request: RpcRequest, packet: Packet) -> Generator:
        """Raw inode read used by the rename coordinator."""
        args = request.args
        yield self._cpu(self.perf.kv_get_us)
        inode = self.kv.get_or_none(tuple(args["key"]))
        if inode is None:
            raise FSError(ENOENT, str(args["key"]))
        return {"inode": inode}

    def _handle_read_inode_scan(self, request: RpcRequest, packet: Packet) -> Generator:
        """Prefix scan used by the rename coordinator to migrate entry lists."""
        prefix = tuple(request.args["prefix"])
        items = list(self.kv.scan_prefix(prefix))
        yield self._cpu(self.perf.readdir_per_entry_us * max(1, len(items)))
        return {"items": [(list(k), v) for k, v in items]}
