"""Shared-resource primitives built on the simulation kernel.

These model the contended facilities in the reproduction:

* :class:`Resource` — a counted pool; used for server CPU cores, so that a
  server with four cores can execute at most four service segments at once.
  A unit is taken only by a :class:`Hold` (one timed service segment), or
  by up to one per unit behind :meth:`Resource.hold_all`.
* :class:`RWLock` — readers-writer lock; used for directory inodes and
  change-logs (§4.2 locks read/write change-logs and inodes separately),
  and, taken in write mode only, for the rename coordinator's serialiser.

All primitives are FIFO-fair: waiters are served in arrival order, which
keeps the simulation deterministic.

One grant path (see DESIGN.md §9): ``RWLock.acquire_read`` /
``acquire_write`` return ``None`` when the lock is granted now, and
otherwise a pending event at the tail of the FIFO that the caller
yields.  A release succeeds the next waiters' events, which defers each
resume to its own kernel entry, so a release never re-enters the
releasing process and waiters wake strictly in arrival order.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Any, Deque, Dict, Optional, Tuple

from .kernel import Event, Simulator, SimulationError
from .stats import PhaseStats

__all__ = ["Resource", "Hold", "RWLock"]


class Resource:
    """A counted pool of identical units (e.g. CPU cores), taken by holds."""

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Hold] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def hold_all(self, n: int, delay: float, phases: Optional[PhaseStats] = None) -> Event:
        """An event that fires when *n* pieces of work of *delay* each have
        run, spread over at most one :class:`Hold` per unit of the pool.

        ``k = min(n, capacity)`` holds are issued now, balanced: the first
        ``n % k`` last ``(n // k + 1) * delay`` and the rest
        ``(n // k) * delay``.  The last to end fires the event
        (DESIGN.md §9).
        """
        if n < 1:
            raise SimulationError(f"hold_all needs at least one hold, got {n}")
        k = min(n, self.capacity)
        share, longer = divmod(n, k)
        done = Event(self.sim)
        left = k

        def ended(_hold: Event) -> None:
            nonlocal left
            left -= 1
            if not left:
                done.succeed()

        for i in range(k):
            cost = (share + 1) * delay if i < longer else share * delay
            Hold(self, cost, phases).add_callback(ended)
        return done


class Hold(Event):
    """A timed hold of one unit: a two-phase self-scheduling event.

    The servers' CPU charge and the stale-set server build one directly.
    Taken immediately, the hold is its own heap entry at ``now + delay``.
    Queued, the releaser grants it like any waiter (``succeed``: a ready
    entry at ``(now, tick)``); on that pop it stamps its start and pushes
    itself at ``now + delay`` — two entries, because the finish push takes
    its tick at grant time (DESIGN.md §9).  The final pop releases the
    unit and books queue/cpu time inline, then runs the callbacks.  Not
    cancellable: once taken or queued, the hold runs to its end.
    """

    __slots__ = ("resource", "delay", "phases", "requested", "start")

    def __init__(self, resource: Resource, delay: float, phases: Optional[PhaseStats]):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.sim = sim = resource.sim
        # Event.__init__ inlined: one hold per run of CPU, ~2 per operation.
        self._cb1 = self.callbacks = self._value = self._exc = None
        self._processed = False
        self.resource = resource
        self.delay = delay
        self.phases = phases
        self.requested = now = sim.now
        if resource._in_use < resource.capacity:
            resource._in_use += 1
            self._triggered = True
            self.start = now
            # Inlined Simulator.schedule_at, here and at the grant below:
            # the two pushes run once per hold.
            _heappush(sim._heap, (now + delay, next(sim._counter), self))  # reprolint: allow[private-access] documented scheduler fast path
        else:
            self._triggered = False
            self.start = None
            resource._waiters.append(self)

    def _run_callbacks(self) -> None:
        sim = self.sim
        now = sim.now
        start = self.start
        if start is None:  # the grant
            self.start = now
            _heappush(sim._heap, (now + self.delay, next(sim._counter), self))  # reprolint: allow[private-access] documented scheduler fast path
            return
        # The release, with its idle check.
        resource = self.resource
        if resource._in_use <= 0:
            raise SimulationError("release of an idle resource")
        if resource._waiters:
            resource._waiters.popleft().succeed()  # the unit passes on
        else:
            resource._in_use -= 1
        phases = self.phases
        if phases is not None:
            # Neither duration can be negative: the delay was checked at
            # issue and the clock never runs backwards.
            phases.queue += start - self.requested
            phases.cpu += now - start
        # Event._run_callbacks with the single-waiter case inlined.
        self._processed = True
        cb1, self._cb1 = self._cb1, None
        if cb1 is not None:
            cb1(self)
        if self.callbacks:
            Event._run_callbacks(self)


class RWLock:
    """A FIFO-fair readers-writer lock.

    Multiple readers may hold the lock concurrently; writers are exclusive.
    Fairness is strict FIFO over the mixed arrival order (a writer arriving
    before a reader blocks that reader), which prevents writer starvation
    and keeps runs deterministic.

    The server tables make one lock per acquisition of an uncontended
    inode or change-log and forget it when a release leaves it idle, so a
    lock is small: the first waiter allocates the queue, and ``name`` is
    formatted when read.
    """

    __slots__ = ("sim", "_name", "_scope", "key", "table", "_readers", "_writer", "_waiters")

    def __init__(
        self, sim: Simulator, name: str = "", scope: Any = None, key: Any = None,
        table: Optional[Dict[Any, "RWLock"]] = None,
    ):
        self.sim = sim
        self._name = name
        self._scope = scope
        self.key = key
        self.table = table  # the owner's key -> lock map this is an entry of
        self._readers = 0
        self._writer = False
        # Queue of (is_writer, event) in arrival order; None until needed.
        self._waiters: Optional[Deque[Tuple[bool, Event]]] = None

    @property
    def name(self) -> str:
        """*name*, or ``name:scope:key!r`` when built with a *scope*."""
        if self._scope is None:
            return self._name
        return f"{self._name}:{self._scope}:{self.key!r}"

    @property
    def readers(self) -> int:
        return self._readers

    @property
    def write_locked(self) -> bool:
        return self._writer

    @property
    def waiting(self) -> int:
        """How many acquisitions are queued behind the holders."""
        return len(self._waiters) if self._waiters else 0

    def acquire_read(self) -> Optional[Event]:
        """Take a read hold: ``None`` when granted now, otherwise the
        queued event to yield, which fires once the hold is granted."""
        if not self._writer and not self._waiters:
            self._readers += 1
            return None
        return self._enqueue(False)

    def acquire_write(self) -> Optional[Event]:
        """Take the write hold (see :meth:`acquire_read`)."""
        if not self._writer and self._readers == 0 and not self._waiters:
            self._writer = True
            return None
        return self._enqueue(True)

    def release_read(self) -> bool:
        """Drop a read hold; True when that left the lock idle (nobody
        holds it, nobody waits for it), as for :meth:`release_write`."""
        if self._readers <= 0:
            raise SimulationError("release_read without a read hold")
        self._readers -= 1
        self._drain()
        return not (self._readers or self._writer or self._waiters)

    def release_write(self) -> bool:
        if not self._writer:
            raise SimulationError("release_write without a write hold")
        self._writer = False
        self._drain()
        return not (self._writer or self._readers or self._waiters)

    def _enqueue(self, is_writer: bool) -> Event:
        """A pending event at the tail of the FIFO."""
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
