"""Position identity of ``Hold`` / ``Resource.hold_all`` (DESIGN.md §9).

A timed hold used to be an open-coded generator segment (take a unit or
queue for one, sleep, release, book the time); that segment is kept here
as the reference for ``Hold``.  A fan-out of *n* units of work on a
*c*-unit pool is ``k = min(n, c)`` balanced holds that end behind one
event; its reference is those *k* holds, costed here, under an
``AllOf``.  Random mixes of processes charging random costs on a k-unit
pool run once through the reference and once through the events; every
process must pass every step at the same virtual time *and in the same
order* relative to every other process — including a witness that never
touches the pool — and the booked queue/cpu sums must be bit-equal.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import AllOf, Event, Hold, PhaseStats, Resource, Simulator

COSTS = (1.0, 2.0, 3.0)     # three values only: equal-time ties everywhere


def _ref_charge(sim, res, cost, stats):
    """``ServerRuntime.charge_cpu`` as it stood before ``Hold``, with the
    pool's acquire and release open-coded as they stood then."""
    t0 = sim.now
    if res._in_use < res.capacity:
        res._in_use += 1
    else:
        granted = Event(sim)
        res._waiters.append(granted)
        yield granted
    acquired = sim.now
    try:
        yield sim.timeout(cost)
    finally:
        if res._waiters:
            res._waiters.popleft().succeed()    # the unit passes on
        else:
            res._in_use -= 1
        stats.queue += acquired - t0
        stats.cpu += sim.now - acquired


def _ref_fan(sim, res, n, cost, stats):
    """*n* units of work as at most one hold per unit of the pool: the
    first ``n % k`` of the ``k`` holds carry one unit of work more."""
    k = min(n, res.capacity)
    costs = [(n // k + (1 if i < n % k else 0)) * cost for i in range(k)]
    yield AllOf(sim, [Hold(res, c, stats) for c in costs])


def _process(sim, res, stats, trace, pid, delay, steps, reference):
    yield sim.timeout(delay)
    for i, step in enumerate(steps):
        if step[0] == "charge":
            if reference:
                yield from _ref_charge(sim, res, step[1], stats)
            else:
                yield Hold(res, step[1], stats)
        elif reference:
            yield from _ref_fan(sim, res, step[1], step[2], stats)
        else:
            yield res.hold_all(step[1], step[2], stats)
        trace.append((sim.now, pid, i))


def _witness(sim, trace, ticks):
    for k in range(ticks):
        yield sim.timeout(1.0)
        trace.append((sim.now, "witness", k))


def _run(capacity, programs, reference):
    sim = Simulator()
    res = Resource(sim, capacity)
    stats = PhaseStats()
    trace = []
    for pid, (delay, steps) in enumerate(programs):
        sim.spawn(_process(sim, res, stats, trace, pid, delay, steps, reference))
    sim.spawn(_witness(sim, trace, ticks=40))
    sim.run()
    assert res.in_use == 0 and res.queued == 0
    sums = {p: stats.total(p) for p in ("queue", "cpu")}
    return trace, sums, sim.now


_step = st.one_of(
    st.tuples(st.just("charge"), st.sampled_from(COSTS)),
    st.tuples(st.just("fan"), st.integers(1, 9), st.sampled_from(COSTS)),
)
_program = st.tuples(st.sampled_from((0.0, 1.0, 2.0)), st.lists(_step, min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 4), programs=st.lists(_program, min_size=1, max_size=7))
def test_hold_and_hold_all_keep_every_heap_position(capacity, programs):
    assert _run(capacity, programs, reference=False) == _run(capacity, programs, reference=True)


def test_contended_fan_out_beside_plain_charges():
    """One pinned schedule with every path in it: immediate and queued
    holds, a fan-out wider than the pool, ties on every timestamp."""
    programs = [
        (0.0, [("fan", 5, 2.0), ("charge", 1.0)]),
        (0.0, [("charge", 2.0), ("charge", 2.0), ("fan", 2, 1.0)]),
        (1.0, [("charge", 1.0), ("fan", 3, 3.0)]),
        (2.0, [("charge", 3.0)]),
    ]
    new, ref = _run(2, programs, reference=False), _run(2, programs, reference=True)
    assert new == ref
    _trace, sums, _end = new
    # All 15 units of work ran their full cost (30 µs of cpu), and some queued.
    assert sums["cpu"] == 30.0 and sums["queue"] > 0


def test_hold_all_issues_one_hold_per_unit_at_most():
    """Five units of 2 µs on a 2-unit pool: holds of 6 and 4 µs, both
    taken now, so the fan-out ends at 6 µs with no queueing."""
    sim = Simulator()
    res, stats = Resource(sim, 2), PhaseStats()
    done = res.hold_all(5, 2.0, stats)
    assert res.in_use == 2 and res.queued == 0
    sim.run()
    assert done.processed and sim.now == 6.0
    assert stats.total("cpu") == 10.0 and stats.total("queue") == 0.0
