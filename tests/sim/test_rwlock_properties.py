"""Property tests: RWLock safety and FIFO fairness under random schedules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RWLock, Simulator


def held(queued):
    """Wait until an acquisition is held: at once when it returned None,
    else when its queued event fires."""
    if queued is not None:
        yield queued


# Each actor: (is_writer, arrival_delay, hold_time)
actors = st.lists(
    st.tuples(
        st.booleans(),
        st.floats(min_value=0, max_value=20),
        st.floats(min_value=0.1, max_value=5),
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=150)
@given(actors=actors)
def test_rwlock_safety_invariant(actors):
    """At no instant may a writer coexist with any other holder."""
    sim = Simulator()
    rw = RWLock(sim)
    state = {"readers": 0, "writer": False}
    violations = []

    def actor(is_writer, delay, hold):
        yield sim.timeout(delay)
        if is_writer:
            yield from held(rw.acquire_write())
            if state["writer"] or state["readers"]:
                violations.append("writer overlap")
            state["writer"] = True
            yield sim.timeout(hold)
            state["writer"] = False
            rw.release_write()
        else:
            yield from held(rw.acquire_read())
            if state["writer"]:
                violations.append("reader during writer")
            state["readers"] += 1
            yield sim.timeout(hold)
            state["readers"] -= 1
            rw.release_read()

    for is_writer, delay, hold in actors:
        sim.spawn(actor(is_writer, delay, hold))
    sim.run()
    assert not violations
    assert state == {"readers": 0, "writer": False}
    assert not rw.write_locked and rw.readers == 0


@settings(max_examples=100)
@given(actors=actors)
def test_rwlock_all_actors_eventually_served(actors):
    """No starvation: every acquisition completes (the sim drains)."""
    sim = Simulator()
    rw = RWLock(sim)
    served = []

    def actor(idx, is_writer, delay, hold):
        yield sim.timeout(delay)
        if is_writer:
            yield from held(rw.acquire_write())
            yield sim.timeout(hold)
            rw.release_write()
        else:
            yield from held(rw.acquire_read())
            yield sim.timeout(hold)
            rw.release_read()
        served.append(idx)

    for idx, (is_writer, delay, hold) in enumerate(actors):
        sim.spawn(actor(idx, is_writer, delay, hold))
    sim.run()
    assert sorted(served) == list(range(len(actors)))


@settings(max_examples=100)
@given(
    writer_delay=st.floats(min_value=0.5, max_value=3),
    n_late_readers=st.integers(min_value=1, max_value=6),
)
def test_rwlock_writers_not_starved_by_reader_stream(writer_delay, n_late_readers):
    """A writer queued behind readers runs before readers that arrived
    after it (strict FIFO prevents writer starvation)."""
    sim = Simulator()
    rw = RWLock(sim)
    order = []

    def early_reader():
        yield from held(rw.acquire_read())
        yield sim.timeout(10.0)
        rw.release_read()

    def writer():
        yield sim.timeout(writer_delay)
        yield from held(rw.acquire_write())
        order.append("writer")
        yield sim.timeout(1.0)
        rw.release_write()

    def late_reader(i):
        yield sim.timeout(writer_delay + 0.1 + i * 0.01)
        yield from held(rw.acquire_read())
        order.append(f"late{i}")
        rw.release_read()

    sim.spawn(early_reader())
    sim.spawn(writer())
    for i in range(n_late_readers):
        sim.spawn(late_reader(i))
    sim.run()
    assert order[0] == "writer"
