"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim, out):
        yield sim.timeout(5.0)
        out.append(sim.now)
        yield sim.timeout(2.5)
        out.append(sim.now)

    out = []
    sim.spawn(proc(sim, out))
    sim.run()
    assert out == [5.0, 7.5]


def test_zero_delay_timeout_runs_same_time():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(0.0)
        seen.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_event_value_delivery():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim, ev):
        value = yield ev
        got.append(value)

    def firer(sim, ev):
        yield sim.timeout(3.0)
        ev.succeed("payload")

    sim.spawn(waiter(sim, ev))
    sim.spawn(firer(sim, ev))
    sim.run()
    assert got == ["payload"]


def test_event_failure_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(waiter(sim, ev))
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_process_return_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim, out):
        value = yield sim.spawn(child(sim))
        out.append(value)

    out = []
    sim.spawn(parent(sim, out))
    sim.run()
    assert out == [42]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent(sim, out):
        try:
            yield sim.spawn(child(sim))
        except ValueError as exc:
            out.append(str(exc))

    out = []
    sim.spawn(parent(sim, out))
    sim.run()
    assert out == ["child died"]


def test_unwaited_process_failure_is_recorded_on_event():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("unobserved")

    proc = sim.spawn(child(sim))
    sim.run()
    assert proc.triggered and not proc.ok
    with pytest.raises(ValueError):
        _ = proc.value


def test_all_of_collects_in_order():
    sim = Simulator()

    def child(sim, delay, value):
        yield sim.timeout(delay)
        return value

    def parent(sim, out):
        procs = [
            sim.spawn(child(sim, 3.0, "a")),
            sim.spawn(child(sim, 1.0, "b")),
            sim.spawn(child(sim, 2.0, "c")),
        ]
        values = yield AllOf(sim, procs)
        out.append(values)
        out.append(sim.now)

    out = []
    sim.spawn(parent(sim, out))
    sim.run()
    assert out == [["a", "b", "c"], 3.0]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    done = []

    def parent(sim):
        values = yield AllOf(sim, [])
        done.append(values)

    sim.spawn(parent(sim))
    sim.run()
    assert done == [[]]


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def ticker(sim, out):
        while True:
            yield sim.timeout(10.0)
            out.append(sim.now)

    out = []
    sim.spawn(ticker(sim, out))
    sim.run(until=35.0)
    assert out == [10.0, 20.0, 30.0]
    assert sim.now == 35.0


def test_run_process_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(4.0)
        return "done"

    p = sim.spawn(proc(sim))
    assert sim.run_process(p) == "done"


def test_run_process_detects_deadlock():
    sim = Simulator()

    def proc(sim, ev):
        yield ev  # never fires

    ev = sim.event()
    p = sim.spawn(proc(sim, ev))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(p)


def test_yield_non_event_fails_process():
    sim = Simulator()

    def proc(sim):
        yield 12345  # not an Event

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.triggered and not p.ok


def test_deterministic_tie_breaking():
    """Events at equal time run in creation order."""
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]
