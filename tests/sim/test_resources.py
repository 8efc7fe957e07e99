"""Unit tests for Resource, Lock, RWLock, and Store."""

import pytest

from repro.sim import Lock, Resource, RWLock, SimulationError, Simulator, Store


def test_resource_limits_concurrency():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    active = []
    peaks = []

    def worker(sim, res, tag):
        yield res.acquire()
        active.append(tag)
        peaks.append(len(active))
        yield sim.timeout(10.0)
        active.remove(tag)
        res.release()

    for tag in range(5):
        sim.spawn(worker(sim, res, tag))
    sim.run()
    assert max(peaks) == 2
    assert sim.now == 30.0  # ceil(5/2) waves of 10us


def test_resource_hold():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    done = []

    def worker(sim, res, tag):
        yield res.hold(5.0)
        done.append((tag, sim.now))

    sim.spawn(worker(sim, res, "a"))
    sim.spawn(worker(sim, res, "b"))
    sim.run()
    assert done == [("a", 5.0), ("b", 10.0)]


def test_resource_release_without_acquire():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_lock_is_exclusive():
    sim = Simulator()
    lock = Lock(sim)
    order = []

    def worker(sim, lock, tag):
        yield lock.acquire()
        order.append((tag, "in", sim.now))
        yield sim.timeout(3.0)
        order.append((tag, "out", sim.now))
        lock.release()

    sim.spawn(worker(sim, lock, 1))
    sim.spawn(worker(sim, lock, 2))
    sim.run()
    assert order == [(1, "in", 0.0), (1, "out", 3.0), (2, "in", 3.0), (2, "out", 6.0)]


def test_rwlock_readers_share():
    sim = Simulator()
    rw = RWLock(sim)
    times = []

    def reader(sim, rw, tag):
        yield rw.acquire_read()
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
        yield rw.acquire_write()
        log.append(("w-in", sim.now))
        yield sim.timeout(4.0)
        log.append(("w-out", sim.now))
        rw.release_write()

    def reader(sim, rw):
        yield sim.timeout(1.0)  # arrive while writer holds
        yield rw.acquire_read()
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
        yield rw.acquire_read()
        yield sim.timeout(10.0)
        rw.release_read()

    def writer(sim, rw):
        yield sim.timeout(1.0)
        yield rw.acquire_write()
        log.append(("writer", sim.now))
        yield sim.timeout(5.0)
        rw.release_write()

    def late_reader(sim, rw):
        yield sim.timeout(2.0)
        yield rw.acquire_read()
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


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.spawn(consumer(sim, store))
    store.put("x")
    store.put("y")
    store.put("z")
    sim.run()
    assert got == ["x", "y", "z"]


def test_store_blocking_get_wakes_on_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((item, sim.now))

    def producer(sim, store):
        yield sim.timeout(7.0)
        store.put("late")

    sim.spawn(consumer(sim, store))
    sim.spawn(producer(sim, store))
    sim.run()
    assert got == [("late", 7.0)]
