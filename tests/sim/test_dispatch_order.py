"""Dispatch order against a reference single-heap dispatcher (DESIGN.md §9).

The kernel's ordering contract: every entry runs at its exact
``(time, tick)`` position — equal-time entries in the order their ticks
were taken, one tick per entry from one counter.  The reference below is
that contract written as plainly as it can be: every entry on one heap,
one pop per event.  Hypothesis builds schedules out of timeouts (zero
delays, forced ties), ``succeed`` / ``fail`` chains, already-processed
events, spawned and adopted processes, ticks reserved early and pushed late (at the current instant
too), and a driver of ``step`` / ``run(until)`` /
``run_process`` / ``stop``; the stock simulator and the reference must
record the same trace.
"""

import heapq
import itertools

from hypothesis import given, settings, strategies as st

from repro.sim import SimulationError, Simulator


class _OntoTheHeap:
    """Stands in for any queue the kernel keeps beside its heap: whatever
    is appended to it is pushed onto the heap instead."""

    def __init__(self, heap):
        self.heap = heap

    def append(self, entry):
        heapq.heappush(self.heap, entry)

    def __len__(self):
        return 0


class ReferenceSimulator(Simulator):
    """Every entry on one heap, popped one at a time in ``(time, tick)``
    order — the dispatcher the stock one must be indistinguishable from."""

    def __init__(self):
        super().__init__()
        self._ready = _OntoTheHeap(self._heap)

    def _dispatch(self, until, proc):
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                return
            when, _, event = heapq.heappop(heap)
            if when < self.now:
                raise SimulationError("time went backwards")
            self.now = when
            event._run_callbacks()
            if self._stopped or (proc is not None and proc._triggered):
                return


def _processed(sim, value):
    """An event whose waiters have run: a process yielding it resumes
    inline, through the trampoline, with no entry."""
    event = sim.event()
    event._value = value
    event._triggered = event._processed = True
    return event


class _Schedule:
    """Interprets one generated schedule on one simulator, recording
    ``(now, what)`` for everything that runs."""

    def __init__(self, sim):
        self.sim = sim
        self.trace = []
        self.names = itertools.count()
        self.procs = []          # (name, process) in creation order
        self.reserved = []       # (seq, name) taken and not pushed yet

    def note(self, what):
        self.trace.append((self.sim.now, what))

    def act(self, action):
        sim, kind = self.sim, action[0]
        name = f"{kind}{next(self.names)}"
        if kind in ("timeout", "succeed", "fail"):
            event = sim.timeout(action[1]) if kind == "timeout" else sim.event()
            event.add_callback(lambda _ev: self.fire(name, action[-1]))
            if kind == "succeed":
                event.succeed(name)
            elif kind == "fail":
                event.fail(RuntimeError(name))
        elif kind in ("spawn", "adopt"):
            _, steps, joined = action
            gen = self.process(name, steps)
            proc = sim.spawn(gen, name) if kind == "spawn" else sim.adopt(gen, name)
            self.procs.append((name, proc))
            if joined:
                proc.add_callback(lambda p: self.note(f"{name} joined: {p.value}"))
        elif kind == "reserve":
            self.reserved.append((sim.reserve_seq(), name))
        elif kind == "push":
            if self.reserved:
                seq, reserved = self.reserved.pop(0)
                event = sim.event()
                event.add_callback(lambda _ev: self.note(f"{reserved} pushed by {name}"))
                sim.schedule_at(sim.now + action[1], event, seq)
        else:
            sim.stop()

    def fire(self, name, kids):
        self.note(name)
        for kid in kids:
            self.act(kid)

    def process(self, name, steps):
        sim = self.sim
        self.note(f"{name} boot")
        for i, step in enumerate(steps):
            kind = step[0]
            if kind == "do":
                self.act(step[1])
                continue
            if kind == "wait":
                target = sim.timeout(step[1])
            elif kind == "processed":
                target = _processed(sim, name)
            elif kind == "join":
                if not self.procs:
                    continue
                target = self.procs[step[1] % len(self.procs)][1]
            else:  # an event triggered now, then waited on
                target = sim.event()
                if kind == "succeed":
                    target.succeed(name)
                else:
                    target.fail(RuntimeError(name))
            try:
                got = yield target
            except RuntimeError as exc:
                got = f"failed: {exc}"
            self.note(f"{name} step {i}: {got}")
        return name

    def drive(self, commands):
        sim = self.sim
        for command in commands:
            kind = command[0]
            try:
                if kind == "step":
                    sim.step()
                elif kind == "run_until":
                    sim.run(until=command[1])
                elif kind == "run_process":
                    if self.procs:
                        proc = self.procs[command[1] % len(self.procs)][1]
                        self.note(f"returned {sim.run_process(proc, until=command[2])}")
                elif kind == "act":
                    self.act(command[1])
                else:
                    sim.run()
            except SimulationError as exc:
                self.note(f"error: {exc}")
        while True:  # drain, past every stop() and every error
            try:
                sim.run()
                sim.step()
            except SimulationError as exc:
                self.note(f"error: {exc}")
                if "empty" in str(exc):
                    break


def _run(sim_cls, roots, commands):
    sim = sim_cls()
    schedule = _Schedule(sim)
    for action in roots:
        schedule.act(action)
    schedule.drive(commands)
    return schedule.trace, sim.now


DELAYS = (0.0, 0.0, 1.0, 2.0)   # zero twice as likely: ties at every instant

_leaf = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(DELAYS), st.just(())),
    st.tuples(st.sampled_from(("succeed", "fail")), st.just(())),
    st.tuples(st.just("reserve")),
    st.tuples(st.just("push"), st.sampled_from((0.0, 0.0, 1.0))),
    st.tuples(st.just("stop")),
)


def _extend(inner):
    kids = st.lists(inner, max_size=3).map(tuple)
    step = st.one_of(
        st.tuples(st.just("wait"), st.sampled_from(DELAYS)),
        st.tuples(st.sampled_from(("succeed", "fail", "processed"))),
        st.tuples(st.just("join"), st.integers(0, 7)),
        st.tuples(st.just("do"), inner),
    )
    return st.one_of(
        st.tuples(st.just("timeout"), st.sampled_from(DELAYS), kids),
        st.tuples(st.sampled_from(("succeed", "fail")), kids),
        st.tuples(
            st.sampled_from(("spawn", "adopt")), st.lists(step, max_size=4).map(tuple),
            st.booleans(),
        ),
    )


_action = st.recursive(_leaf, _extend, max_leaves=12)
_command = st.one_of(
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), st.sampled_from((0.0, 1.0, 2.0, 3.0))),
    st.tuples(st.just("run_process"), st.integers(0, 7), st.sampled_from((None, 1.0, 2.0))),
    st.tuples(st.just("run")),
    st.tuples(st.just("act"), _action),
)


@settings(max_examples=300, deadline=None)
@given(roots=st.lists(_action, min_size=1, max_size=6), commands=st.lists(_command, max_size=6))
def test_dispatch_matches_the_single_heap_reference(roots, commands):
    assert _run(Simulator, roots, commands) == _run(ReferenceSimulator, roots, commands)


def _noting(sim, order, tag):
    event = sim.event()
    event.add_callback(lambda _ev: order.append(tag))
    return event


def test_reserved_tick_pushed_at_the_current_instant_runs_first():
    """A tick reserved before two same-instant entries were made, pushed
    after them, at the current instant: it is the oldest, so it runs first."""
    sim, order = Simulator(), []
    seq = sim.reserve_seq()
    _noting(sim, order, "a").succeed()
    sim.schedule_at(sim.now, _noting(sim, order, "reserved"), seq)
    _noting(sim, order, "b").succeed()
    sim.run()
    assert order == ["reserved", "a", "b"]


def test_entries_due_when_the_clock_arrives_run_before_those_made_there():
    """Two timeouts due at t = 1: the second was pushed before the clock
    got there, so it runs before what the first one makes at t = 1."""
    sim, order = Simulator(), []

    def first(_ev):
        order.append("t1")
        _noting(sim, order, "made at 1").succeed()

    sim.timeout(1.0).add_callback(first)
    sim.timeout(1.0).add_callback(lambda _ev: order.append("t2"))
    sim.run()
    assert order == ["t1", "t2", "made at 1"]


def test_run_until_an_earlier_instant_runs_nothing():
    sim, order = Simulator(), []
    sim.run(until=2.0)
    _noting(sim, order, "due now").succeed()
    sim.run(until=1.0)
    assert order == [] and sim.now == 2.0
    sim.run()
    assert order == ["due now"]
