"""Tier-1 suite configuration: shared fixtures."""

import gc

import pytest


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
