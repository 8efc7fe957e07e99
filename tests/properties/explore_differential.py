"""Explore the differential harness's schedule space from hypothesis.

Not part of tier-1, which imports nothing from here (the name does not
match ``test_*.py``).  Run it as CI's explore job does, with fresh seeds
and shrinking on::

    PYTHONPATH=src python -m pytest tests/properties/explore_differential.py

Each cell draws 20 times as many schedules as tier-1 runs pairs for it.
A failing cell writes its shrunk schedule, as the ``check(...)`` call
that replays it, to ``explore-failures/<cell>.txt``; each lands in
``test_differential.py`` as a strict-xfail pin or as a fix.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from .test_differential import CELLS, FAULTS, OPS, SEEDS, Schedule, check

schedules = st.builds(
    Schedule,
    faults=st.sampled_from(FAULTS),
    clients=st.integers(1, 4),
    mix=st.tuples(*[st.integers(0, 3)] * len(OPS)).filter(any),
    dirs=st.integers(1, 3),
    ops=st.integers(1, 25),
    seed=st.integers(0, 10_000),
    nest=st.booleans(),
    at=st.floats(0.0, 400.0),
)


@pytest.mark.parametrize("cell", [name + f for name in CELLS for f in ("", "+faults")])
@settings(max_examples=20 * len(SEEDS), deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(schedule=schedules)
def test_explore(cell, schedule):
    try:
        check(cell, schedule)
    except Exception as err:
        out = Path("explore-failures")
        out.mkdir(exist_ok=True)
        (out / f"{cell}.txt").write_text(f"check({cell!r}, {schedule!r})\n{err!r}\n")
        raise
