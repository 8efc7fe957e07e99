"""Tier-1 suite configuration: run with the pool sanitizer installed.

Every test executes with the packet/header freelist sanitizer active
(DESIGN.md §12), so any use-after-recycle, double-recycle, or aliasing
introduced by a change trips a loud :class:`PoolSanitizerError` instead
of silently corrupting later traffic.  Opt out (e.g. to time something)
with ``REPRO_POOL_SANITIZER=0``.
"""

import gc
import os

import pytest

from repro.analysis import install_pool_sanitizer, uninstall_pool_sanitizer


@pytest.fixture(autouse=True)
def _pool_sanitizer():
    if os.environ.get("REPRO_POOL_SANITIZER", "1") == "0":
        yield None
        return
    san = install_pool_sanitizer()
    try:
        yield san
    finally:
        uninstall_pool_sanitizer()


@pytest.fixture
def collector_off():
    """Run the test as the drivers run a window: one collection, then the
    cyclic collector off, so only refcounts free anything."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
