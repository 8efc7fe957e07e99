"""Unified exception hierarchy for the reproduction.

:class:`ReproError` is the root every layer's errors descend from:

* :class:`~repro.net.RpcError` (and :class:`~repro.net.RpcTimeout`) —
  transport / application errors crossing the simulated wire;
* :class:`~repro.core.errors.FSError` — filesystem errors with a
  POSIX-style code (a subclass of ``RpcError``, since they ship to the
  caller as RPC error strings);
* :class:`~repro.kvstore.KVError` (``KeyNotFound``,
  ``TransactionError``) — storage-engine errors.

RPC-layer and harness code that wants "anything this stack can raise"
catches ``ReproError`` instead of enumerating layer-specific types.  The
concrete classes are defined in, and imported from, their own layers.
"""

from __future__ import annotations

__all__ = ["ReproError"]


class ReproError(Exception):
    """Root of the reproduction's exception hierarchy."""
