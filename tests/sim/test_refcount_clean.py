"""A finished process dies by refcount (DESIGN.md §9).

The drivers turn the cyclic collector off for a whole measured window,
so anything the kernel leaves in a reference cycle is leaked for the
length of a run.  Every test here runs with the collector disabled and
asserts through a ``weakref`` that the object is gone the moment its
last waiter has run — no ``gc.collect()`` to help.
"""

import weakref

import pytest

from repro.sim import AllOf, Process, RWLock, Simulator, kernel


# The kernel's event classes are slotted without ``__weakref__`` (8 bytes
# on every event); the probes add it and nothing else.
class _WeakProcess(Process):
    __slots__ = ("__weakref__",)


class _WeakAllOf(AllOf):
    __slots__ = ("__weakref__",)


@pytest.fixture
def weak_processes(monkeypatch):
    """``spawn`` and ``adopt`` build the kernel module's ``Process``."""
    monkeypatch.setattr(kernel, "Process", _WeakProcess)


pytestmark = pytest.mark.usefixtures("collector_off", "weak_processes")


def _returns(sim):
    yield sim.timeout(1.0)
    return "done"


def _raises(sim):
    yield sim.timeout(1.0)
    raise ValueError("boom")


def _sleeps(sim):
    yield sim.timeout(100.0)


def _waiter(sim, holder, seen):
    # pop(): the waiter keeps no local reference to the process it awaits.
    try:
        seen.append((yield holder.pop()))
    except (ValueError, RuntimeError) as exc:
        seen.append(type(exc).__name__)


class TestFinishedProcessIsFreed:
    def _run(self, sim, body):
        seen = []
        proc = sim.spawn(body(sim))
        ref = weakref.ref(proc)
        gen_ref = weakref.ref(proc.gen)
        sim.spawn(_waiter(sim, [proc], seen))
        del proc
        sim.run()
        return ref, gen_ref, seen

    def test_normal_return(self):
        ref, gen_ref, seen = self._run(Simulator(), _returns)
        assert seen == ["done"]
        assert ref() is None and gen_ref() is None

    def test_uncaught_exception(self):
        ref, gen_ref, seen = self._run(Simulator(), _raises)
        assert seen == ["ValueError"]
        assert ref() is None and gen_ref() is None

    def test_uncaught_exception_without_a_waiter(self):
        sim = Simulator()
        ref = weakref.ref(sim.spawn(_raises(sim)))
        sim.run()
        assert ref() is None

    def test_failed_process_keeps_the_generator_frames_in_its_traceback(self):
        # Only the kernel's own frame is dropped from the stored exception.
        sim = Simulator()
        proc = sim.spawn(_raises(sim))
        sim.run()
        with pytest.raises(ValueError) as info:
            proc.value
        assert [entry.name for entry in info.traceback][-1] == "_raises"

    @pytest.mark.parametrize("catches", [False, True])
    def test_failure_that_ends_the_process(self, catches):
        sim = Simulator()
        wake = sim.event()

        def victim(sim):
            try:
                yield wake
            except RuntimeError:
                if not catches:
                    raise
            return "stopped"

        seen = []
        proc = sim.spawn(victim(sim))
        ref = weakref.ref(proc)
        sim.spawn(_waiter(sim, [proc], seen))

        def killer(sim):
            yield sim.timeout(1.0)
            wake.fail(RuntimeError("stop"))

        sim.spawn(killer(sim))
        del proc
        sim.run()
        assert seen == ["stopped" if catches else "RuntimeError"]
        assert ref() is None

    def test_adopted_process(self):
        sim = Simulator()
        proc = sim.adopt(_returns(sim))  # runs inline up to its first pending yield
        ref = weakref.ref(proc)
        seen = []
        sim.spawn(_waiter(sim, [proc], seen))
        del proc
        sim.run()
        assert seen == ["done"]
        assert ref() is None

    def test_completion_releases_generator_and_resume_callback(self):
        sim = Simulator()
        proc = sim.spawn(_returns(sim))
        assert proc.gen is not None and proc._resume_cb is not None
        sim.run()
        assert proc.gen is None and proc._resume_cb is None
        assert proc.value == "done"


class TestCombinatorsLeaveNothing:
    @pytest.mark.parametrize("finished_first", [False, True])
    def test_over_processes(self, finished_first):
        sim = Simulator()
        procs = [sim.spawn(_returns(sim)) for _ in range(3)]
        if finished_first:
            sim.run()
        combo = _WeakAllOf(sim, procs)
        refs = [weakref.ref(p) for p in procs] + [weakref.ref(combo)]
        del procs, combo
        sim.run()
        assert [r() for r in refs] == [None] * 4

    def test_allof_failing_child(self):
        sim = Simulator()
        combo = _WeakAllOf(sim, [sim.spawn(_raises(sim)), sim.spawn(_sleeps(sim))])
        ref = weakref.ref(combo)
        del combo
        sim.run(until=2.0)
        assert ref() is None


class TestIdleRWLockIsLean:
    def test_never_queued_lock_has_no_queue(self):
        sim = Simulator()
        lock = RWLock(sim)
        assert lock.acquire_read() is None and lock.acquire_read() is None
        assert lock.release_read() is False  # the other reader still holds it
        assert lock.release_read() is True  # idle: nobody holds, nobody waits
        assert lock.acquire_write() is None
        assert lock.release_write() is True
        assert lock._waiters is None

    def test_first_waiter_allocates_the_queue(self):
        sim = Simulator()
        lock = RWLock(sim)
        assert lock.acquire_write() is None
        waiting = lock.acquire_read()
        assert not waiting.triggered and len(lock._waiters) == 1
        assert lock.release_write() is False  # handed to the waiter, not idle
        sim.run()
        assert waiting.processed and lock.readers == 1

    def test_name_is_formatted_on_demand(self):
        sim = Simulator()
        key = ("F", 7, "name")
        lock = RWLock(sim, name="inode", scope=3, key=key)
        assert lock.name == f"inode:3:{key!r}"
        assert lock.name.split(":", 1)[0] == "inode"
        assert lock.key is key  # the table's key, not a formatted copy
        assert RWLock(sim, name="changelog", scope=0, key=12).name == "changelog:0:12"
        assert RWLock(sim, name="plain").name == "plain"
        assert RWLock(sim).name == ""
