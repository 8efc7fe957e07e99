"""Filesystem error codes.

Errors cross the simulated wire as strings (``"EEXIST: /a/b"``); LibFS
parses them back into :class:`FSError` with a structured ``code`` so
callers can branch POSIX-style.  ``EINVALIDPATH`` is SwitchFS-internal:
it tells the client its cached path resolution is stale (an ancestor was
invalidated) and a retry after cache invalidation is in order.
"""

from __future__ import annotations

from ..net import RpcError

__all__ = [
    "FSError",
    "EEXIST",
    "ENOENT",
    "ENOTEMPTY",
    "ENOTDIR",
    "EINVAL",
    "EINVALIDPATH",
    "EWRONGEPOCH",
    "fs_error",
]

EEXIST = "EEXIST"
ENOENT = "ENOENT"
ENOTEMPTY = "ENOTEMPTY"
ENOTDIR = "ENOTDIR"
EINVAL = "EINVAL"
EINVALIDPATH = "EINVALIDPATH"
# SwitchFS-internal like EINVALIDPATH: the server no longer (or does not
# yet) own the shard the request routed to — the client's membership view
# is stale; refresh the view and retry against the new owner.
EWRONGEPOCH = "EWRONGEPOCH"

_KNOWN = {EEXIST, ENOENT, ENOTEMPTY, ENOTDIR, EINVAL, EINVALIDPATH, EWRONGEPOCH}


class FSError(RpcError):
    """A filesystem-level failure with a POSIX-style code.

    Subclasses :class:`~repro.net.RpcError` so the RPC dispatcher ships it
    to the caller as an error string; LibFS reconstructs the code with
    :func:`fs_error`.
    """

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}" if detail else code)

    def wire_format(self) -> str:
        """Encoding used inside RPC error strings."""
        return f"{self.code}: {self.detail}"


def fs_error(wire: str) -> FSError:
    """Parse an RPC error string back into :class:`FSError`.

    Unknown formats map to a generic ``EIO``-style error preserving text.
    """
    code, _, detail = wire.partition(":")
    code = code.strip()
    if code in _KNOWN:
        return FSError(code, detail.strip())
    return FSError("EIO", wire)
