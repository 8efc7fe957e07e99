"""Shared-resource primitives built on the simulation kernel.

These model the contended facilities in the reproduction:

* :class:`Resource` — a counted pool; used for server CPU cores, so that a
  server with four cores can execute at most four service segments at once.
* :class:`Lock` — a capacity-1 resource; used for inode write locks.
* :class:`RWLock` — readers-writer lock; used for directory inodes and
  change-logs (§4.2 locks read/write change-logs and inodes separately).
* :class:`Store` — an unbounded FIFO of items with blocking ``get``; used
  for server request queues and mailboxes.

All primitives are FIFO-fair: waiters are served in arrival order, which
keeps the simulation deterministic.

Two grant paths (see DESIGN.md §9):

* **Immediate grant** — when an acquire (or ``Store.get``) can be served
  without waiting, it returns an already-*processed* event via
  :meth:`Simulator.granted`; the yielding process resumes inline with no
  pending-event allocation and no heap round-trip.
* **Queued grant** — when the caller must wait, a pending event joins the
  FIFO queue and is succeeded on release/put, which defers the resume
  through the heap.  Release and put therefore never re-enter the
  releasing process, and waiters wake strictly in arrival order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional, Tuple

from .kernel import Event, Simulator, SimulationError

__all__ = ["Resource", "Lock", "RWLock", "Store"]


class Resource:
    """A counted pool of identical units (e.g. CPU cores).

    ``acquire()`` returns an event that fires when a unit is granted;
    ``release()`` returns one unit.  The :meth:`using` helper wraps a timed
    hold as a sub-process-friendly generator.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        # Analysis hook: one global-attribute load + None test when idle.
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.on_acquire(self, "x")
        if self._in_use < self.capacity:
            self._in_use += 1
            return self.sim.granted()
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Immediate-grant fast path: take a unit *without* an event.

        Equivalent to ``yield acquire()`` resuming inline off a processed
        event — no virtual time passes and no other process can run in
        between — but the caller skips the yield/trampoline round trip
        entirely.  Returns False when the caller must fall back to
        ``yield acquire()`` (the queued path).
        """
        if self._in_use < self.capacity:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.on_acquire(self, "x")
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.on_release(self, "x")
        if self._in_use <= 0:
            raise SimulationError("release of an idle resource")
        if self._waiters:
            # Hand the unit straight to the next waiter; _in_use unchanged.
            # The waiter wakes via the heap, never inline from release().
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def using(self, hold: float) -> Generator[Event, Any, None]:
        """Generator: acquire, hold for *hold* microseconds, release."""
        yield self.acquire()
        try:
            yield self.sim.timeout(hold)
        finally:
            self.release()


class Lock(Resource):
    """A mutual-exclusion lock (capacity-1 resource)."""

    __slots__ = ()

    def __init__(self, sim: Simulator, name: str = ""):
        super().__init__(sim, capacity=1, name=name)

    @property
    def locked(self) -> bool:
        return self._in_use > 0


class RWLock:
    """A FIFO-fair readers-writer lock.

    Multiple readers may hold the lock concurrently; writers are exclusive.
    Fairness is strict FIFO over the mixed arrival order (a writer arriving
    before a reader blocks that reader), which prevents writer starvation
    and keeps runs deterministic.

    The server tables keep one lock per inode and change-log ever touched,
    nearly all never contended, so an idle lock is small: the first waiter
    allocates the queue, and ``name`` is formatted when read.
    """

    __slots__ = ("sim", "_name", "_scope", "_key", "_readers", "_writer", "_waiters")

    def __init__(self, sim: Simulator, name: str = "", scope: Any = None, key: Any = None):
        self.sim = sim
        self._name = name
        self._scope = scope
        self._key = key
        self._readers = 0
        self._writer = False
        # Queue of (is_writer, event) in arrival order; None until needed.
        self._waiters: Optional[Deque[Tuple[bool, Event]]] = None

    @property
    def name(self) -> str:
        """*name*, or ``name:scope:key!r`` when built with a *scope*."""
        if self._scope is None:
            return self._name
        return f"{self._name}:{self._scope}:{self._key!r}"

    @property
    def readers(self) -> int:
        return self._readers

    @property
    def write_locked(self) -> bool:
        return self._writer

    def acquire_read(self) -> Event:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.on_acquire(self, "r")
        if not self._writer and not self._waiters:
            self._readers += 1
            return self.sim.granted()
        return self._enqueue(False)

    def try_acquire_read(self) -> bool:
        """Immediate-grant fast path (see :meth:`Resource.try_acquire`)."""
        if not self._writer and not self._waiters:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.on_acquire(self, "r")
            self._readers += 1
            return True
        return False

    def acquire_write(self) -> Event:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.on_acquire(self, "w")
        if not self._writer and self._readers == 0 and not self._waiters:
            self._writer = True
            return self.sim.granted()
        return self._enqueue(True)

    def try_acquire_write(self) -> bool:
        """Immediate-grant fast path (see :meth:`Resource.try_acquire`)."""
        if not self._writer and self._readers == 0 and not self._waiters:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.on_acquire(self, "w")
            self._writer = True
            return True
        return False

    def release_read(self) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.on_release(self, "r")
        if self._readers <= 0:
            raise SimulationError("release_read without a read hold")
        self._readers -= 1
        self._drain()

    def release_write(self) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.on_release(self, "w")
        if not self._writer:
            raise SimulationError("release_write without a write hold")
        self._writer = False
        self._drain()

    def _enqueue(self, is_writer: bool) -> Event:
        """Queued grant: a pending event at the tail of the FIFO."""
        ev = Event(self.sim)
        waiters = self._waiters
        if waiters is None:
            waiters = self._waiters = deque()
        waiters.append((is_writer, ev))
        return ev

    def _drain(self) -> None:
        waiters = self._waiters
        while waiters:
            is_writer, ev = waiters[0]
            if is_writer:
                if self._writer or self._readers:
                    return
                waiters.popleft()
                self._writer = True
                ev.succeed()
                return
            if self._writer:
                return
            waiters.popleft()
            self._readers += 1
            ev.succeed()
            # Keep draining: consecutive readers may all enter.


class Store:
    """Unbounded FIFO channel of items with blocking ``get``.

    ``put`` never blocks (the network is the only bounded element in the
    model; server queues are unbounded, with queueing delay emerging from
    core contention instead).
    """

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        if self._items:
            return self.sim.granted(self._items.popleft())
        ev = Event(self.sim)
        self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None
