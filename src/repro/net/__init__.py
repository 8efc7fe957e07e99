"""Simulated UDP network substrate: packets, faults, topology, and RPC."""

from .faults import FaultDecision, FaultModel
from .packet import (
    FINGERPRINT_BITS,
    HEADER_STRUCT,
    Packet,
    REGULAR_PORT,
    STALESET_PORT,
    StaleSetHeader,
    StaleSetOp,
    alloc_packet,
)
from .rpc import Reply, RpcError, RpcNode, RpcRequest, RpcResponse, RpcTimeout
from .sniffer import CapturedPacket, Sniffer
from .topology import (
    Network,
    PassthroughSwitch,
    PathFn,
    SwitchDevice,
    leaf_spine_path,
    single_rack_path,
)

__all__ = [
    "Packet",
    "StaleSetHeader",
    "StaleSetOp",
    "REGULAR_PORT",
    "STALESET_PORT",
    "FINGERPRINT_BITS",
    "HEADER_STRUCT",
    "alloc_packet",
    "FaultModel",
    "FaultDecision",
    "Network",
    "PassthroughSwitch",
    "SwitchDevice",
    "single_rack_path",
    "leaf_spine_path",
    "PathFn",
    "RpcNode",
    "RpcRequest",
    "RpcResponse",
    "Reply",
    "RpcError",
    "RpcTimeout",
    "Sniffer",
    "CapturedPacket",
]
