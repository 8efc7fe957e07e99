"""The reproduction's exception hierarchy, in one place.

:class:`ReproError` is the root every layer's errors descend from:

* :class:`RpcError` (and :class:`RpcTimeout`) — transport / application
  errors crossing the simulated wire;
* :class:`FSError` — filesystem errors with a POSIX-style code (a
  subclass of ``RpcError``, since they ship to the caller as RPC error
  strings), with the codes and :func:`fs_error`;
* :class:`KVError` (``KeyNotFound``, ``TransactionError``) —
  storage-engine errors.

RPC-layer and harness code that wants "anything this stack can raise"
catches ``ReproError`` instead of enumerating layer-specific types.
``repro.net``, ``repro.core`` and ``repro.kvstore`` re-export their
layer's classes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "RpcError", "RpcTimeout",
    "FSError", "fs_error", "EEXIST", "ENOENT", "ENOTEMPTY", "ENOTDIR", "EINVAL",
    "EINVALIDPATH", "EWRONGEPOCH",
    "KVError", "KeyNotFound", "TransactionError",
]


class ReproError(Exception):
    """Root of the reproduction's exception hierarchy."""


class RpcError(ReproError):
    """An application-level error returned by the remote handler."""


class RpcTimeout(RpcError):
    """All retransmissions of a request went unanswered."""


# Errors cross the simulated wire as strings (``"EEXIST: /a/b"``); LibFS
# parses them back into FSError with a structured ``code`` so callers can
# branch POSIX-style.  EINVALIDPATH is SwitchFS-internal: it tells the
# client its cached path resolution is stale (an ancestor was
# invalidated) and a retry after cache invalidation is in order.
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

    Subclasses :class:`RpcError` so the RPC dispatcher ships it to the
    caller as an error string; LibFS reconstructs the code with
    :func:`fs_error`.
    """

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}" if detail else code)


def fs_error(wire: str) -> FSError:
    """Parse an RPC error string back into :class:`FSError`.

    Unknown formats map to a generic ``EIO``-style error preserving text.
    """
    code, _, detail = wire.partition(":")
    code = code.strip()
    if code in _KNOWN:
        return FSError(code, detail.strip())
    return FSError("EIO", wire)


class KVError(ReproError):
    """Base class for storage-engine errors."""


class KeyNotFound(KVError):
    """Raised by ``get`` when the key has no live value."""


class TransactionError(KVError):
    """Raised on misuse of a local transaction (double commit, use-after)."""
