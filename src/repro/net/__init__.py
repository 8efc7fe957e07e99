"""Simulated UDP network substrate: packets, faults, the fabric, and RPC."""

from .faults import FaultDecision, FaultModel
from .packet import (
    FINGERPRINT_BITS,
    HEADER_STRUCT,
    Packet,
    StaleSetHeader,
    StaleSetOp,
    alloc_packet,
)
from ..errors import RpcError, RpcTimeout
from .rpc import Reply, RpcNode, RpcRequest, RpcResponse
from .topology import Network, PassthroughSwitch, SwitchDevice

__all__ = [
    "Packet",
    "StaleSetHeader",
    "StaleSetOp",
    "FINGERPRINT_BITS",
    "HEADER_STRUCT",
    "alloc_packet",
    "FaultModel",
    "FaultDecision",
    "Network",
    "PassthroughSwitch",
    "SwitchDevice",
    "RpcNode",
    "RpcRequest",
    "RpcResponse",
    "Reply",
    "RpcError",
    "RpcTimeout",
]
