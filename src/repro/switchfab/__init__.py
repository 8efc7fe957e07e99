"""Programmable-switch data plane: register stages, stale set, dentry cache, device."""

from .dentry_cache import DentryCache
from .pipeline import RegisterStage, TableGeometry
from .stale_set import StaleSet
from .switch import ProgrammableSwitch, SwitchStats

__all__ = [
    "RegisterStage",
    "TableGeometry",
    "StaleSet",
    "DentryCache",
    "ProgrammableSwitch",
    "SwitchStats",
]
