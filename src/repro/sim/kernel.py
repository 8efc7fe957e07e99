"""Discrete-event simulation kernel.

This module provides the execution substrate for every simulated component
in the reproduction: metadata servers, clients, the programmable switch's
control plane, and the network.  It is a compact, dependency-free
discrete-event engine in the style of SimPy:

* :class:`Simulator` owns the virtual clock and the pending entries: a
  heap of timed ones and a FIFO of those due at the current instant.
* :class:`Event` is a one-shot occurrence that processes can wait on.
* :class:`Process` wraps a generator; the generator *yields* events (or
  other processes) to suspend until they fire, and receives the event's
  value as the result of the ``yield`` expression.

Virtual time is a ``float`` measured in **microseconds** throughout the
project, matching the latency scale of the paper's evaluation (RTTs of a
few microseconds, operation latencies of tens to hundreds).

Fast paths
----------
Every simulated microsecond in the repo funnels through this loop, so it
carries several allocation-avoiding fast paths (see DESIGN.md §9 for the
invariants they must preserve):

* an entry due at the current instant with a fresh tick — ``succeed`` /
  ``fail``, a process boot, an inbox arrival — is appended to a FIFO
  ready queue instead of the heap; the one dispatch loop merges the two
  by ``(time, tick)``, so no entry moves;
* the first callback of an event lives in a dedicated slot (``_cb1``);
  the overflow list is only allocated for the second waiter onward;
* processes boot by queueing *themselves* instead of allocating a
  kick-off event (an adopted one takes no entry at all);
* a process that yields an already-*processed* event (a finished
  process, an event whose waiters have run) resumes inline via a
  trampoline in :meth:`Process._resume` — no entry and no recursion.
  Nothing hands out such an event to stand for a grant: an uncontended
  :mod:`repro.sim.resources` lock is taken with no event at all.

All fast paths preserve the documented determinism contract: events
scheduled at equal virtual times run in insertion (FIFO) order, and two
runs of the same seeded workload produce identical event orderings.

Example
-------
>>> sim = Simulator()
>>> def hello(sim, out):
...     yield sim.timeout(5.0)
...     out.append(sim.now)
>>> out = []
>>> _ = sim.spawn(hello(sim, out))
>>> sim.run()
>>> out
[5.0]
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "SimulationError",
]

# Module-level alias: one global load instead of two attribute lookups in
# the timed push paths (a Timeout is 2-3 per operation).
_heappush = heapq.heappush


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself."""


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, after which its callbacks run on the
    simulator loop at the current virtual time.  Processes wait on events
    by yielding them.

    Callback storage is two-tier: the common single-waiter case uses the
    ``_cb1`` slot; ``callbacks`` is the overflow list, allocated only when
    a second waiter arrives.  Callbacks run in registration order.
    """

    __slots__ = ("sim", "_cb1", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._cb1: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful, delivering *value* to waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        sim._ready.append((sim.now, next(sim._counter), self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed; waiters see *exc* raised at the yield."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        sim = self.sim
        sim._ready.append((sim.now, next(sim._counter), self))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event fires (immediately if already done)."""
        if self._processed:
            fn(self)
        elif self._cb1 is None and self.callbacks is None:
            self._cb1 = fn
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def _discard_callback(self, fn: Callable[["Event"], None]) -> None:
        """Detach *fn* if registered (bound-method equality, not identity).

        Keeps registration order intact: discarding the slot callback
        promotes the head of the overflow list into the slot.
        """
        if self._cb1 is not None and self._cb1 == fn:
            if self.callbacks:
                self._cb1 = self.callbacks.pop(0)
            else:
                self._cb1 = None
        elif self.callbacks is not None:
            try:
                self.callbacks.remove(fn)
            except ValueError:
                pass

    def _run_callbacks(self) -> None:
        self._processed = True
        cb1, self._cb1 = self._cb1, None
        callbacks, self.callbacks = self.callbacks, None
        if cb1 is not None:
            cb1(self)
        if callbacks:
            for fn in callbacks:
                fn(self)


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event.__init__ inlined: 2-3 timeouts per operation.
        self.sim = sim
        self._cb1 = self.callbacks = self._exc = None
        self._processed = False
        self._triggered = True
        self._value = value
        _heappush(sim._heap, (sim.now + delay, next(sim._counter), self))


class Process(Event):
    """A running generator, itself usable as an event (fires on return).

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event succeeds, the generator resumes with the event's value; when it
    fails, the exception is thrown into the generator.  The process event
    succeeds with the generator's return value, or fails with its uncaught
    exception.

    Completion releases the generator and the resume callback, the one
    reference from a process back to itself, so a finished process dies
    by refcount once its last waiter has run (DESIGN.md §9).
    """

    __slots__ = ("gen", "name", "_started", "_resume_cb", "_adopted")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "", boot: bool = True):
        # Event.__init__ inlined, as in Timeout.
        self.sim = sim
        self._cb1 = self.callbacks = self._value = self._exc = None
        self._triggered = self._processed = False
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # One bound method reused for every wait, instead of allocating a
        # fresh one per yield.
        self._resume_cb = self._resume
        self._adopted = not boot
        if boot:
            self._started = False
            # Boot without a kick-off event: the process is its own ready
            # entry; _run_callbacks dispatches on _started.
            sim._ready.append((sim.now, next(sim._counter), self))
        else:
            # Adopted process: Simulator.adopt starts the generator inline.
            self._started = True

    # -- internals ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator; trampoline over already-processed targets.

        This loop is also the callback registered on every awaited event,
        so one Python frame covers callback entry, generator advance, and
        re-wait (a failed event is thrown into the generator).  A
        yielded event that is *already processed* (a finished process, a
        pre-fired event) feeds straight back into the loop rather than
        recursing or taking a trip through the scheduler.
        """
        if self._triggered:
            return
        value = event._value
        exc = event._exc
        gen = self.gen
        sim = self.sim
        while True:
            try:
                if exc is None:
                    target = gen.send(value)
                else:
                    err, exc = exc, None
                    target = gen.throw(err)
            except StopIteration as stop:
                self.gen = self._resume_cb = None
                if self._adopted and self._cb1 is None and self.callbacks is None:
                    # Silent completion (the adopt no-observer contract).
                    self._value = stop.value
                    self._triggered = self._processed = True
                else:
                    self.succeed(stop.value)
                return
            except BaseException as err:  # noqa: BLE001 - propagate via event
                # Covers both an unhandled throw (err is the exception we
                # threw in) and a fresh exception raised by the generator;
                # either way the process fails with what escaped.  The
                # traceback's head is this frame, whose locals hold the
                # process: drop it or the exception keeps its process alive.
                err.__traceback__ = err.__traceback__.tb_next
                self.gen = self._resume_cb = None
                self.fail(err)
                return
            if not isinstance(target, Event):
                value = None
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
                continue
            if target.sim is not sim:
                value = None
                exc = SimulationError("yielded event from another simulator")
                continue
            if target._processed:
                # Immediate-resume fast path.
                value = target._value
                exc = target._exc
                continue
            # Inlined add_callback single-waiter case (the overwhelmingly
            # common one: we are the event's only waiter).
            if target._cb1 is None and target.callbacks is None:
                target._cb1 = self._resume_cb
            else:
                target.add_callback(self._resume_cb)
            return

    def _run_callbacks(self) -> None:
        if not self._started:
            # Boot entry: start the generator instead of running completion
            # callbacks (none can have fired yet).  The shared processed
            # event is a zero-allocation (value=None, exc=None) carrier.
            self._started = True
            self._resume(self.sim._processed_none)
            return
        Event._run_callbacks(self)


class AllOf(Event):
    """Fires when all constituent events have succeeded.

    Succeeds with a list of their values in the order given.  Fails as soon
    as any constituent fails, detaching its callback from the still-pending
    constituents so they hold no dangling references.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        cb = self._on_child
        for ev in self._events:
            if self._triggered:
                break
            ev.add_callback(cb)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            self._detach()
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self._events])

    def _detach(self) -> None:
        cb = self._on_child
        for ev in self._events:
            if not ev._processed:
                ev._discard_callback(cb)


class Simulator:  # reprolint: allow[RL006] one per cluster, built at boot
    """The virtual clock and event loop.

    All simulated components hold a reference to one ``Simulator`` and
    schedule their activity through it.  The loop is strictly
    deterministic: ties in virtual time break by insertion order.
    """

    def __init__(self):
        #: Current virtual time in microseconds.  A plain attribute (not a
        #: property): it is read on every hot-path resume and the kernel is
        #: its only writer.
        self.now = 0.0
        # Pending (time, tick, event) entries: the timed ones on the heap,
        # those pushed at `now` with a fresh tick on the FIFO ready queue.
        self._heap: List[Tuple[float, int, Event]] = []
        self._ready: Deque[Tuple[float, int, Event]] = deque()
        self._counter = itertools.count()
        self._stopped = False
        # The (value=None, exc=None) a process is started with, boot or
        # adopt: processed events are immutable, so one instance serves.
        started = Event(self)
        started._triggered = started._processed = True
        self._processed_none = started

    # -- event constructors ----------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after *delay* microseconds."""
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from generator *gen*."""
        return Process(self, gen, name=name)

    def adopt(self, gen: Generator, name: str = "") -> Process:
        """Run *gen* inline, now, as a process (inline dispatch).

        Unlike :meth:`spawn`, no boot entry is consumed: the generator
        advances in the caller's frame up to its first pending event and
        continues from there as a process; one that never blocks has
        finished (``triggered``) when this returns.

        No-observer contract: an adopted process that returns while no
        callback is registered on it completes *silently* — processed in
        place, no entry.  ``adopt`` is for continuations whose handle
        the caller drops (the RPC serve path); to wait on the handle,
        register before the generator finishes, or use :meth:`spawn`.
        """
        proc = Process(self, gen, name=name, boot=False)
        proc._resume(self._processed_none)
        return proc

    # -- scheduling surface ------------------------------------------------
    def reserve_seq(self) -> int:
        """Take the next tick now for a later :meth:`schedule_at`: the entry
        lands exactly where one pushed now would (deadline queues)."""
        return next(self._counter)

    def schedule_at(self, when: float, event: Event, seq: Optional[int] = None) -> None:
        """Enqueue *event* to run its callbacks at virtual time *when*.

        The public surface for self-scheduling events; *seq* is a tick
        from :meth:`reserve_seq` (default: the next one).  Per-event sites
        inline the push, each under a documented ``allow[private-access]``.
        """
        _heappush(self._heap, (when, next(self._counter) if seq is None else seq, event))

    # -- running -----------------------------------------------------------
    def _dispatch(self, until: Optional[float], proc: Optional[Process]) -> None:
        """The event loop: run entries in ``(time, tick)`` order until none
        is pending, the next lies beyond *until*, :meth:`stop` is called,
        or *proc* has triggered.  Callback dispatch for the two leaf event
        classes (plain Event, Timeout) is unrolled — this loop executes
        once per simulated event repo-wide.

        The two sources merge by comparing their heads.  Every ready entry
        is due now with a tick fresher than any before it, so the heap's
        top runs first only when it is due now with an older tick (a
        reserved seq, or an entry pushed before the clock got here), and
        the clock moves only when the ready queue is empty.
        """
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        if until is not None and until < self.now:
            return
        while True:
            if ready and not (heap and heap[0] < ready[0]):
                event = popleft()[2]
            elif heap:
                if until is not None and heap[0][0] > until:
                    return
                when, _, event = pop(heap)
                if when < self.now:
                    raise SimulationError("time went backwards")
                self.now = when
            else:
                return
            cls = event.__class__
            if cls is Timeout or cls is Event:
                # Inlined Event._run_callbacks.
                event._processed = True
                cb1, event._cb1 = event._cb1, None
                callbacks, event.callbacks = event.callbacks, None
                if cb1 is not None:
                    cb1(event)
                if callbacks:
                    for fn in callbacks:
                        fn(event)
            else:
                event._run_callbacks()
            if self._stopped or (proc is not None and proc._triggered):
                return

    def step(self) -> None:
        """Process the single next event."""
        if not self._heap and not self._ready:
            raise SimulationError("step on an empty schedule")
        self._stopped = True  # the loop checks after each event
        self._dispatch(None, None)

    def run(self, until: Optional[float] = None) -> None:
        """Run until nothing is pending, virtual time reaches *until*, or
        :meth:`stop` is called.

        When *until* is given and the run was not stopped, the clock is
        advanced to exactly *until* even if the last processed event fired
        earlier.  A stopped run leaves the clock where it stopped: what is
        still pending may be due before *until*.
        """
        self._stopped = False
        self._dispatch(until, None)
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def run_process(self, proc: Process, until: Optional[float] = None) -> Any:
        """Run until *proc* completes and return its value.

        Raises the process's exception if it failed, or
        :class:`SimulationError` if the simulation drained (deadlock) or hit
        *until* before the process finished.
        """
        self._stopped = False
        if not proc._triggered:
            self._dispatch(until, proc)
            if not proc._triggered:
                if not self._heap and not self._ready:
                    raise SimulationError(f"deadlock: process {proc.name!r} never finished")
                raise SimulationError(f"process {proc.name!r} still running at t={self.now}")
        return proc.value

    def stop(self) -> None:
        """Halt :meth:`run` after the current event."""
        self._stopped = True
