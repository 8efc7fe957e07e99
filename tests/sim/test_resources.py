"""Unit tests for Resource (taken by Hold) and RWLock."""

import pytest

from repro.sim import Hold, Resource, RWLock, SimulationError, Simulator


def held(queued):
    """Wait until an acquisition is held: at once when it returned None,
    else when its queued event fires."""
    if queued is not None:
        yield queued


def test_resource_limits_concurrency():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    peaks = []
    ends = []

    def worker(sim, res):
        hold = Hold(res, 10.0, None)
        peaks.append(res.in_use)
        yield hold
        ends.append(sim.now)

    for _ in range(5):
        sim.spawn(worker(sim, res))
    sim.run()
    assert max(peaks) == 2
    assert ends == [10.0, 10.0, 20.0, 20.0, 30.0]  # ceil(5/2) waves of 10us
    assert res.in_use == 0 and res.queued == 0


def test_resource_hold():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    done = []

    def worker(sim, res, tag):
        yield Hold(res, 5.0, None)
        done.append((tag, sim.now))

    sim.spawn(worker(sim, res, "a"))
    sim.spawn(worker(sim, res, "b"))
    sim.run()
    assert done == [("a", 5.0), ("b", 10.0)]


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_lock_is_exclusive():
    """Write mode alone, as the rename coordinator's serialiser takes it."""
    sim = Simulator()
    lock = RWLock(sim)
    order = []

    def worker(sim, lock, tag):
        yield from held(lock.acquire_write())
        order.append((tag, "in", sim.now))
        yield sim.timeout(3.0)
        order.append((tag, "out", sim.now))
        lock.release_write()

    sim.spawn(worker(sim, lock, 1))
    sim.spawn(worker(sim, lock, 2))
    sim.run()
    assert order == [(1, "in", 0.0), (1, "out", 3.0), (2, "in", 3.0), (2, "out", 6.0)]


def test_rwlock_readers_share():
    sim = Simulator()
    rw = RWLock(sim)
    times = []

    def reader(sim, rw, tag):
        yield from held(rw.acquire_read())
        times.append((tag, sim.now))
        yield sim.timeout(5.0)
        rw.release_read()

    for tag in range(3):
        sim.spawn(reader(sim, rw, tag))
    sim.run()
    assert [t for _, t in times] == [0.0, 0.0, 0.0]
    assert sim.now == 5.0


def test_rwlock_writer_excludes_readers():
    sim = Simulator()
    rw = RWLock(sim)
    log = []

    def writer(sim, rw):
        yield from held(rw.acquire_write())
        log.append(("w-in", sim.now))
        yield sim.timeout(4.0)
        log.append(("w-out", sim.now))
        rw.release_write()

    def reader(sim, rw):
        yield sim.timeout(1.0)  # arrive while writer holds
        yield from held(rw.acquire_read())
        log.append(("r-in", sim.now))
        rw.release_read()

    sim.spawn(writer(sim, rw))
    sim.spawn(reader(sim, rw))
    sim.run()
    assert log == [("w-in", 0.0), ("w-out", 4.0), ("r-in", 4.0)]


def test_rwlock_fifo_prevents_writer_starvation():
    """A writer queued behind readers blocks later readers (FIFO fairness)."""
    sim = Simulator()
    rw = RWLock(sim)
    log = []

    def early_reader(sim, rw):
        yield from held(rw.acquire_read())
        yield sim.timeout(10.0)
        rw.release_read()

    def writer(sim, rw):
        yield sim.timeout(1.0)
        yield from held(rw.acquire_write())
        log.append(("writer", sim.now))
        yield sim.timeout(5.0)
        rw.release_write()

    def late_reader(sim, rw):
        yield sim.timeout(2.0)
        yield from held(rw.acquire_read())
        log.append(("late-reader", sim.now))
        rw.release_read()

    sim.spawn(early_reader(sim, rw))
    sim.spawn(writer(sim, rw))
    sim.spawn(late_reader(sim, rw))
    sim.run()
    assert log == [("writer", 10.0), ("late-reader", 15.0)]


def test_rwlock_release_errors():
    sim = Simulator()
    rw = RWLock(sim)
    with pytest.raises(SimulationError):
        rw.release_read()
    with pytest.raises(SimulationError):
        rw.release_write()
