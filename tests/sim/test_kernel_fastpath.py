"""Regression tests for the kernel fast paths (DESIGN.md §9).

Covers the single-waiter callback slot, process boot without a kick-off
event, the trampoline over already-processed events, adopt and silent
completion, the one grant path of the resources (None when granted now), the
one dispatch loop behind step/run/run_process, timeouts,
combinator callback detaching, and how a failed event thrown into its
waiter is caught, re-raised or translated.
"""

import pytest

from repro.sim import (
    AllOf,
    Hold,
    Resource,
    RWLock,
    SimulationError,
    Simulator,
    Timeout,
)


def pending(sim):
    """The scheduler's pending entries, timed and ready alike."""
    return [*sim._heap, *sim._ready]


# ---------------------------------------------------------------------------
# single-waiter callback slot
# ---------------------------------------------------------------------------


class TestCallbackStorage:
    def test_no_list_for_single_waiter(self):
        sim = Simulator()
        ev = sim.event()
        ev.add_callback(lambda e: None)
        assert ev.callbacks is None  # overflow list never allocated

    def test_callbacks_run_in_registration_order(self):
        sim = Simulator()
        ev = sim.event()
        order = []
        for tag in ("a", "b", "c"):
            ev.add_callback(lambda e, tag=tag: order.append(tag))
        ev.succeed()
        sim.run()
        assert order == ["a", "b", "c"]

    def test_discard_slot_callback_promotes_list_head(self):
        sim = Simulator()
        ev = sim.event()
        order = []
        cbs = [lambda e, tag=tag: order.append(tag) for tag in ("a", "b", "c")]
        for cb in cbs:
            ev.add_callback(cb)
        ev._discard_callback(cbs[0])
        ev.add_callback(lambda e: order.append("d"))
        ev.succeed()
        sim.run()
        assert order == ["b", "c", "d"]  # order preserved after promotion

    def test_add_callback_after_processed_runs_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("x")
        sim.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == ["x"]


# ---------------------------------------------------------------------------
# process boot and the immediate-resume trampoline
# ---------------------------------------------------------------------------


class TestProcessFastPath:
    def test_spawn_defers_first_step_to_the_loop(self):
        sim = Simulator()
        started = []

        def proc(sim):
            started.append(sim.now)
            yield sim.timeout(1.0)

        sim.spawn(proc(sim))
        assert started == []  # not started inline at spawn time
        sim.run()
        assert started == [0.0]

    def test_spawn_interleaves_with_pending_events_fifo(self):
        """A pending event queued before spawn still runs first (seed order)."""
        sim = Simulator()
        order = []
        ev = sim.event()
        ev.add_callback(lambda e: order.append("event"))
        ev.succeed()

        def proc(sim):
            order.append("process")
            yield sim.timeout(1.0)

        sim.spawn(proc(sim))
        sim.run()
        assert order == ["event", "process"]

    def test_yield_processed_event_resumes_inline_without_heap(self):
        sim = Simulator()
        fired = sim.event()
        fired.succeed("v")
        sim.run()
        out = []

        def proc(sim):
            out.append(len(pending(sim)))
            for _ in range(3):
                out.append((yield fired))
            out.append(len(pending(sim)))

        sim.spawn(proc(sim))
        sim.run()
        assert out == [0, "v", "v", "v", 0]

    def test_deep_immediate_resume_chain_does_not_recurse(self):
        """50k processed events in a row must not blow the Python stack."""
        sim = Simulator()
        n = 50_000
        fired = []
        for i in range(n):
            fired.append(sim.event().succeed(i))
        sim.run()

        def proc(sim):
            for i in range(n):
                got = yield fired[i]
                assert got == i

        done = sim.spawn(proc(sim))
        sim.run()
        assert done.ok

    def test_processed_event_is_immutable(self):
        sim = Simulator()
        fired = sim.event().succeed("v")
        sim.run()
        assert fired.processed and fired.ok
        with pytest.raises(SimulationError):
            fired.succeed()
        assert fired.value == "v"


# ---------------------------------------------------------------------------
# adopt: inline start, silent completion (the no-observer contract)
# ---------------------------------------------------------------------------
class TestAdopt:
    @staticmethod
    def _sleeper(sim, log, value="done"):
        log.append(("started", sim.now))
        yield sim.timeout(3.0)
        log.append(("woke", sim.now))
        return value

    def test_adopt_runs_inline_without_a_boot_entry(self):
        sim = Simulator()
        log = []
        proc = sim.adopt(self._sleeper(sim, log))
        assert log == [("started", 0.0)]    # ran in the caller's frame
        assert [type(ev) for _, _, ev in pending(sim)] == [Timeout]   # no boot entry
        assert not proc.triggered

    def test_generator_that_never_blocks_is_finished_on_return(self):
        sim = Simulator()

        def immediate(sim):
            return "now"
            yield

        proc = sim.adopt(immediate(sim))
        assert proc.triggered and proc.processed and proc.value == "now"
        assert pending(sim) == []

    def test_unobserved_adopted_process_completes_without_a_heap_entry(self):
        sim = Simulator()
        log = []
        proc = sim.adopt(self._sleeper(sim, log))
        sim.step()                          # the timeout pops, the process returns
        assert log[-1] == ("woke", 3.0)
        assert pending(sim) == []           # no completion entry
        assert proc.processed and proc.value == "done"
        assert proc.gen is None

    def test_adopted_process_with_a_waiter_completes_through_the_heap(self):
        sim = Simulator()
        log, seen = [], []
        proc = sim.adopt(self._sleeper(sim, log))
        proc.add_callback(lambda p: seen.append((p.value, sim.now)))
        sim.step()
        assert proc.triggered and not proc.processed
        assert [ev for _, _, ev in pending(sim)] == [proc]   # its completion entry, as if spawned
        sim.step()
        assert seen == [("done", 3.0)]

    def test_spawned_process_completed_then_yielded_behaves_as_before(self):
        sim = Simulator()
        log, seen = [], []
        worker = sim.spawn(self._sleeper(sim, log))

        def late_waiter(sim):
            yield sim.timeout(10.0)
            seen.append((yield worker))     # long processed: resumes inline

        sim.spawn(late_waiter(sim))
        sim.run(until=3.0)
        # A spawned process always takes its completion entry, observed or not.
        assert worker.triggered and worker.processed
        sim.run()
        assert seen == ["done"]


# ---------------------------------------------------------------------------
# one dispatch loop behind step / run / run_process
# ---------------------------------------------------------------------------
class TestOneDispatchLoop:
    @staticmethod
    def _ticker(sim, out, period=10.0):
        while True:
            yield sim.timeout(period)
            out.append(sim.now)

    def test_step_processes_exactly_one_entry(self):
        sim = Simulator()
        out = []
        sim.spawn(self._ticker(sim, out))
        sim.step()                          # boot
        assert out == [] and sim.now == 0.0
        sim.step()                          # first tick
        assert out == [10.0]
        sim.run(until=35.0)                 # a step does not leave the loop stopped
        assert out == [10.0, 20.0, 30.0]

    def test_step_on_an_empty_heap_is_an_error(self):
        with pytest.raises(SimulationError, match="empty"):
            Simulator().step()

    def test_run_process_stops_at_completion_and_leaves_the_rest(self):
        sim = Simulator()
        out = []
        sim.spawn(self._ticker(sim, out))

        def short(sim):
            yield sim.timeout(25.0)
            return "done"

        assert sim.run_process(sim.spawn(short(sim))) == "done"
        assert out == [10.0, 20.0] and sim.now == 25.0
        assert sim.run_process(sim.spawn(short(sim))) == "done"
        assert out == [10.0, 20.0, 30.0, 40.0] and sim.now == 50.0   # the tick due at 50 is behind it

    def test_run_process_until_reports_a_process_still_running(self):
        sim = Simulator()

        def long(sim):
            yield sim.timeout(100.0)

        proc = sim.spawn(long(sim))
        with pytest.raises(SimulationError, match="still running"):
            sim.run_process(proc, until=50.0)
        assert sim.run_process(proc) is None    # resumable afterwards

    def test_stop_ends_run_after_the_current_event(self):
        sim = Simulator()
        out = []
        sim.spawn(self._ticker(sim, out))

        def stopper(sim):
            yield sim.timeout(20.0)
            sim.stop()

        sim.spawn(stopper(sim))
        sim.run()
        assert sim.now == 20.0 and out == [10.0]    # the tick due at 20 is behind it
        sim.run(until=45.0)                 # run() clears the stop
        assert out == [10.0, 20.0, 30.0, 40.0]

    def test_a_stopped_run_until_leaves_the_clock_where_it_stopped(self):
        sim = Simulator()
        out = []
        sim.spawn(self._ticker(sim, out))

        def stopper(sim):
            yield sim.timeout(20.0)
            sim.stop()

        sim.spawn(stopper(sim))
        sim.run(until=45.0)
        # Not advanced to 45: the tick due at 20 is still pending.
        assert sim.now == 20.0 and out == [10.0]
        sim.run(until=45.0)
        assert out == [10.0, 20.0, 30.0, 40.0] and sim.now == 45.0

    def test_schedule_at_reserved_seq_keeps_the_reserved_position(self):
        sim = Simulator()
        order = []

        def note(tag):
            ev = sim.event()
            ev.add_callback(lambda _e: order.append(tag))
            return ev

        seq = sim.reserve_seq()             # a deadline set first ...
        sim.schedule_at(5.0, note("second"))
        sim.schedule_at(5.0, note("reserved-first"), seq=seq)   # ... but pushed last
        sim.run()
        assert order == ["reserved-first", "second"]


# ---------------------------------------------------------------------------
# timeouts
# ---------------------------------------------------------------------------


class TestTimeout:
    def test_back_to_back_timeouts_keep_their_values_and_times(self):
        sim = Simulator()
        times = []

        def proc(sim):
            got = yield sim.timeout(1.0, "first")
            times.append((sim.now, got))
            got = yield sim.timeout(2.5, "second")
            times.append((sim.now, got))

        sim.spawn(proc(sim))
        sim.run()
        assert times == [(1.0, "first"), (3.5, "second")]

    def test_negative_delay_is_rejected_after_timeouts_have_run(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1.0)

        sim.spawn(proc(sim))
        sim.run()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_allof_over_timeouts_reads_the_right_values(self):
        sim = Simulator()
        out = []

        def proc(sim):
            values = yield AllOf(sim, [sim.timeout(1.0, "a"), sim.timeout(2.0, "b")])
            out.append(values)

        sim.spawn(proc(sim))
        sim.run()
        assert out == [["a", "b"]]


# ---------------------------------------------------------------------------
# the one grant path: None when granted now, else a pending event
# ---------------------------------------------------------------------------


class TestImmediateGrants:
    def test_free_resource_hold_is_taken_at_once(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        hold = Hold(res, 3.0, None)
        assert hold.triggered and not hold.processed
        assert res.in_use == 1 and res.queued == 0
        assert [(t, ev) for t, _, ev in pending(sim)] == [(3.0, hold)]   # its finish

    def test_contended_resource_grant_is_pending(self):
        sim = Simulator()
        lock = RWLock(sim)
        assert lock.acquire_write() is None
        second = lock.acquire_write()
        assert not second.triggered
        lock.release_write()
        assert second.triggered and not second.processed  # wakes at its own entry

    def test_rwlock_uncontended_paths(self):
        sim = Simulator()
        rw = RWLock(sim)
        assert rw.acquire_read() is None and rw.readers == 1
        rw.release_read()
        assert rw.acquire_write() is None and rw.write_locked
        rw.release_write()
        assert pending(sim) == []    # no event, no entry


# ---------------------------------------------------------------------------
# combinator callback leak (satellite fix)
# ---------------------------------------------------------------------------


def _dangling(ev):
    return (1 if ev._cb1 is not None else 0) + len(ev.callbacks or ())


class TestCombinatorDetach:
    def test_allof_detaches_on_failure(self):
        sim = Simulator()
        doomed, pending = sim.event(), sim.event()
        caught = []

        def proc(sim):
            try:
                yield AllOf(sim, [doomed, pending])
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.spawn(proc(sim))
        doomed.fail(RuntimeError("boom"))
        sim.run()
        assert caught == ["boom"]
        assert _dangling(pending) == 0


# ---------------------------------------------------------------------------
# a failed event thrown into its waiter: catch vs re-raise (the _resume throw)
# ---------------------------------------------------------------------------


def _fail_at(sim, event, when, exc):
    """A process that fails *event* with *exc* at virtual time *when*."""

    def poker(sim):
        yield sim.timeout(when)
        event.fail(exc)

    return sim.spawn(poker(sim))


class TestThrownFailureHandling:
    def test_process_catches_a_failed_event_and_continues(self):
        sim = Simulator()
        wake = sim.event()
        log = []

        def worker(sim):
            try:
                yield wake
            except RuntimeError as exc:
                log.append(("caught", str(exc), sim.now))
            yield sim.timeout(5.0)
            log.append(("done", sim.now))
            return "finished"

        target = sim.spawn(worker(sim))
        _fail_at(sim, wake, 2.0, RuntimeError("poke"))
        sim.run()
        assert log == [("caught", "poke", 2.0), ("done", 7.0)]
        assert target.ok and target.value == "finished"

    def test_process_reraises_a_failed_event_and_fails(self):
        sim = Simulator()
        wake = sim.event()

        def worker(sim):
            yield wake

        target = sim.spawn(worker(sim))
        _fail_at(sim, wake, 2.0, RuntimeError("fatal"))
        sim.run()
        assert target.triggered and not target.ok
        with pytest.raises(RuntimeError, match="fatal"):
            _ = target.value

    def test_process_translates_a_failed_event_into_new_exception(self):
        """The old dead `err is exc` branch: a *different* exception escaping
        the handler must fail the process with the new exception."""
        sim = Simulator()
        wake = sim.event()

        def worker(sim):
            try:
                yield wake
            except RuntimeError as exc:
                raise ValueError(f"translated {exc}") from exc

        target = sim.spawn(worker(sim))
        _fail_at(sim, wake, 2.0, RuntimeError("x"))
        sim.run()
        with pytest.raises(ValueError, match="translated x"):
            _ = target.value
