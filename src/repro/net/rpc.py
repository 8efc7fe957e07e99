"""RPC layer over the simulated UDP fabric.

The paper's implementation uses a coroutine-based, non-blocking RPC engine
on DPDK; ours provides the same facilities on the simulation kernel:

* request/response matching by ``rpc_id`` with timeout + retransmission;
* at-most-once execution on the server via acknowledged replies: a
  duplicated request re-sends the kept reply without re-executing, and a
  reply is kept until its caller says it is done with it (§4.4.1);
* one-way notifications (no reply expected) for change-log pushes and
  unlock messages;
* custom reply routing so a response can carry a stale-set header and be
  processed/multicast by the switch on its way back.

Handlers are generators: they yield simulation events (lock acquisitions,
core holds, nested RPCs) and return either a plain value or a
:class:`Reply` when they need to control the response packet.

Fast paths (DESIGN.md §10)
--------------------------
* **The inbox drain is the dispatcher**: a host's :class:`_Inbox` is its
  own kernel entry; its pop swaps out the queued packets and dispatches
  each in place — a response to its waiter, a request to
  :meth:`Simulator.adopt`, which drives the serve generator in the
  drain's frame (no boot entry) and, its handle dropped, takes no
  completion entry either.  The handler runs via ``yield from`` inside the
  serve generator, so the blocking path costs one process instead of two.
* **A reply is its packet**: the serve generator builds and sends the
  response packet itself (a plain return value makes no :class:`Reply`),
  and at-most-once keeps that packet; a duplicate request gets a clone.
* **Scatter-gather multicast**: :meth:`RpcNode.multicast_call` sends all
  requests up front and counts completions on one shared event instead of
  spawning a process per destination; one shared deadline drives
  retransmission to the still-unanswered subset.
* **One retransmit deadline per node** (:class:`_Deadlines`) instead of
  a timer per attempt; the backoff is a table, the lowest outstanding id
  the first key of the pending map.
* **Acknowledged replies**: a request carries ``acked``, its sender's
  lowest outstanding ``rpc_id``; a server keeps per source that watermark
  and the replies above it (:class:`_Replies`), never runs a request
  below it, and so holds O(calls in flight) entries, not a history.
"""

from __future__ import annotations

import itertools
from bisect import insort
from heapq import heappush as _heappush
from collections import defaultdict, deque
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

from ..errors import RpcError, RpcTimeout
from ..sim import Event, Simulator
from .packet import Packet, StaleSetHeader, alloc_packet
from .topology import Network

__all__ = ["RpcRequest", "RpcResponse", "Reply", "RpcNode"]


# rpc_id 0 is reserved for one-way notifications (they never match a
# response, so they don't consume ids from the shared counter): a request
# wants a reply exactly when its rpc_id is not 0.
_rpc_ids = itertools.count(1)

#: Retransmit backoff per attempt: the timeout doubles up to 64 times.
_BACKOFF = (1, 2, 4, 8, 16, 32)
_BACKOFF_STEPS = len(_BACKOFF)
_BACKOFF_CAP = 64

#: Sentinel delivered to a waiting call when its retransmit deadline
#: fires first.  Racing the deadline and the response on ONE event
#: (whoever triggers first wins; the loser sees ``triggered`` and backs
#: off) is cheaper than a combinator event per attempt.
_TIMED_OUT = object()


class RpcRequest:
    """The request payload carried inside a packet.

    Hand-written ``__slots__`` class (not a dataclass): one request is
    allocated per transmission attempt, so skipping the per-instance
    ``__dict__`` is measurable on the op fast path.
    """

    __slots__ = ("rpc_id", "method", "args", "src", "acked")

    def __init__(self, rpc_id: int, method: str, args: Any, src: str, acked: int = 0):
        self.rpc_id = rpc_id  # 0: a notification, which gets no reply
        self.method = method
        self.args = args
        self.src = src
        self.acked = acked  # sender's lowest outstanding rpc_id (0: unsaid)

    def __repr__(self) -> str:
        return (
            f"RpcRequest(rpc_id={self.rpc_id}, method={self.method!r}, "
            f"src={self.src!r})"
        )


class RpcResponse:
    """The response payload; ``error`` is a string for application errors."""

    __slots__ = ("rpc_id", "value", "error")

    def __init__(self, rpc_id: int, value: Any = None, error: Optional[str] = None):
        self.rpc_id = rpc_id
        self.value = value
        self.error = error

    def __repr__(self) -> str:
        return f"RpcResponse(rpc_id={self.rpc_id}, value={self.value!r}, error={self.error!r})"


class Reply:
    """Handler-controlled response.

    ``header`` attaches a stale-set operation for the switch to execute on
    the way back (e.g. INSERT of the parent fingerprint after a create).
    ``dst`` overrides the destination (defaults to the requester).
    """

    __slots__ = ("value", "error", "header", "dst")

    def __init__(
        self,
        value: Any = None,
        error: Optional[str] = None,
        header: Optional[StaleSetHeader] = None,
        dst: Optional[str] = None,
    ):
        self.value = value
        self.error = error
        self.header = header
        self.dst = dst

    def __repr__(self) -> str:
        return (
            f"Reply(value={self.value!r}, error={self.error!r}, "
            f"header={self.header!r}, dst={self.dst!r})"
        )


#: Handler signature: (request, packet) -> generator returning value|Reply.
Handler = Callable[[RpcRequest, Packet], Generator]


class _Gather:
    """Scatter-gather completion counter for :meth:`RpcNode.multicast_call`."""

    __slots__ = ("event", "remaining", "values", "error")

    def __init__(self, event: Optional[Event], fanout: int):
        self.event = event
        self.remaining = fanout
        self.values: List[Any] = [None] * fanout
        self.error: Optional[str] = None


class _Deadlines(Event):
    """One node's retransmit deadlines behind (normally) one heap entry.

    Every attempt adds a record ``(deadline, seq, waiter)``; *seq* is a
    tie-break tick reserved at send time, so an entry pushed for the
    record — now or when an earlier one pops — lands exactly where a timer
    pushed at send time would have.  ``records`` is sorted; ``live`` holds
    the records with a heap entry, smallest last.  Invariant: while a
    record is outstanding, some live entry is at or before it; only a
    record added below the live one (after a backed-off attempt) pushes
    a second entry.
    """

    __slots__ = ("records", "live")

    def __init__(self, sim: Simulator):
        Event.__init__(self, sim)
        self.records: Deque[Tuple[float, int, Event]] = deque()
        self.live: List[Tuple[float, int, Event]] = []

    def add(self, timeout_us: float, waiter: Event) -> None:
        sim = self.sim
        # Inlined Simulator.reserve_seq and, below, schedule_at: one record
        # per attempt.
        record = (sim.now + timeout_us, next(sim._counter), waiter)  # reprolint: allow[private-access] documented scheduler fast path
        records = self.records
        if records and record < records[-1]:
            insort(records, record)
        else:
            records.append(record)
        live = self.live
        if not live or record < live[-1]:
            live.append(record)
            _heappush(sim._heap, (record[0], record[1], self))  # reprolint: allow[private-access] documented scheduler fast path

    def _run_callbacks(self) -> None:
        """Fire the record this entry stands for unless its response won
        the race, drop answered records, re-arm for the next outstanding."""
        due = self.live.pop()
        records = self.records
        while records:
            head = records[0]
            waiter = head[2]
            if not waiter._triggered:  # reprolint: allow[private-access] hot path, mirrors Event.triggered
                if head is not due:
                    live = self.live  # re-arm unless a live entry is at or before it
                    if not live or head < live[-1]:
                        live.append(head)
                        self.sim.schedule_at(head[0], self, head[1])
                    return
                waiter.succeed(_TIMED_OUT)
            records.popleft()


class _Inbox:
    """A host's inbound queue that is its own kernel entry (DESIGN.md §9).

    ``put`` queues the packet and, unless armed, queues the inbox at
    ``(now, next tick)`` on the kernel's ready queue; the pop takes every
    queued packet in arrival order, so one delivered meanwhile rides the
    first's entry, and dispatches it here: a response to its waiter, a
    request to an adopted serve generator.
    """

    __slots__ = ("node", "sim", "items", "armed")

    def __init__(self, node: "RpcNode"):
        self.node = node
        self.sim = node.sim
        self.items: List[Packet] = []
        self.armed = False

    def put(self, packet: Packet) -> None:
        self.items.append(packet)
        if not self.armed:
            self.armed = True
            sim = self.sim
            # Inlined Event.succeed's push: runs once per delivered packet.
            sim._ready.append((sim.now, next(sim._counter), self))  # reprolint: allow[private-access] documented scheduler fast path

    def _run_callbacks(self) -> None:
        node = self.node
        handlers = node._handlers
        items = self.items
        while items:  # a packet put during the drain joins it
            self.items = []
            for packet in items:
                if not node._alive:
                    continue  # crashed host: packets fall on the floor
                for tap in node._raw_taps:
                    if tap(packet):
                        break
                else:
                    payload = packet.payload
                    kind = payload.__class__
                    if kind is RpcResponse:
                        node._complete(payload, packet)
                    elif kind is RpcRequest:
                        method = payload.method
                        handler, name = (
                            handlers[method] if method in handlers
                            else (None, f"serve-{method}@{node.addr}")
                        )
                        # Inline dispatch: the serve generator runs in this
                        # frame up to its first pending event; nobody
                        # observes the continuation.
                        node.sim.adopt(node._serve(payload, packet, handler), name)
                    # Unknown payloads are dropped silently (UDP semantics).
            items = self.items
        self.armed = False


class _Replies(dict):
    """One caller's replies on a server: ``rpc_id`` -> the response packet
    sent (``None`` while the first execution runs; a duplicate request gets
    a clone), in arrival order — id order unless the fabric reorders —
    above ``acked``, its highest watermark."""

    __slots__ = ("acked",)

    def __init__(self) -> None:
        self.acked = 0

    def advance(self, acked: int) -> None:
        """Forget the replies below the caller's new watermark (a marker
        stays until its handler returns)."""
        self.acked = acked
        for rpc_id in [i for i, sent in self.items() if i < acked and sent is not None]:
            del self[rpc_id]


class RpcNode:  # reprolint: allow[RL006] one endpoint per server/client, built at boot
    """One host's RPC endpoint: dispatcher, handlers, and outgoing calls."""

    def __init__(self, sim: Simulator, net: Network, addr: str):
        self.sim = sim
        self.net = net
        self.addr = addr
        self._inbox = net.attach(addr, _Inbox(self))
        self._deadlines = _Deadlines(sim)
        # method -> (handler, the name its serve processes carry)
        self._handlers: Dict[str, Tuple[Handler, str]] = {}
        # rpc_id -> a call's current attempt event (or the reply packet that
        # landed in its race window), or a multicast member's
        # (_Gather, index).  In rpc_id order (ids only grow): the first key
        # is the `acked` every request carries.
        self._pending: Dict[int, Any] = {}
        self._replies: Dict[str, _Replies] = defaultdict(_Replies)  # by source addr
        self._raw_taps: List[Callable[[Packet], bool]] = []
        self._alive = True
        self.retransmits = 0

    # -- registration --------------------------------------------------------
    def register(self, method: str, handler: Handler) -> None:
        """Install *handler* for *method*; replaces any existing one."""
        self._handlers[method] = (handler, f"serve-{method}@{self.addr}")

    def add_raw_tap(self, tap: Callable[[Packet], bool]) -> None:
        """Install a packet tap that sees every inbound packet first.

        A tap returning True consumes the packet (used by servers to
        observe switch-multicast unlock notifications that are copies of
        RPC responses addressed to clients).
        """
        self._raw_taps.append(tap)

    # -- lifecycle (crash injection) ------------------------------------------
    def kill(self) -> None:
        """Stop processing packets, simulating a host crash."""
        self._alive = False

    def revive(self) -> None:
        self._alive = True

    # -- outgoing calls --------------------------------------------------------
    def call(
        self,
        dst: str,
        method: str,
        args: Any,
        header: Optional[StaleSetHeader] = None,
        timeout_us: float = 100.0,
        max_attempts: int = 5,
    ) -> Generator:
        """Generator: perform an RPC and return ``(value, response_packet)``.

        *header* (immutable) rides every transmission of the request.
        Raises :class:`RpcTimeout` after ``max_attempts`` silent attempts
        and :class:`RpcError` for application errors.
        """
        rpc_id = next(_rpc_ids)
        pending_map = self._pending
        pending_map[rpc_id] = None  # listed first: acked <= rpc_id
        sim = self.sim
        set_deadline = self._deadlines.add
        try:
            for attempt in range(max_attempts):
                if attempt > 0:
                    self.retransmits += 1
                # Exponential backoff: a slow server (e.g. one blocked on a
                # contended lock during aggregation) still answers the first
                # request; later retransmits are duplicates the reply cache
                # absorbs, so patience grows instead of giving up.
                attempt_timeout = timeout_us * (
                    _BACKOFF[attempt] if attempt < _BACKOFF_STEPS else _BACKOFF_CAP
                )
                for acked in pending_map:  # the first key: lowest outstanding id
                    break
                request = RpcRequest(rpc_id, method, args, self.addr, acked)
                # Race the response against the retransmit deadline on ONE
                # fresh event (no combinator): whichever triggers it
                # first wins, the loser sees `triggered` and backs off.
                ev = pending_map[rpc_id] = sim.event()
                self.net.send(alloc_packet(self.addr, dst, request, header))
                set_deadline(attempt_timeout, ev)
                packet = yield ev
                if packet is _TIMED_OUT:
                    packet = pending_map[rpc_id]  # a reply may have landed in
                    if packet is ev:              # the race window meanwhile
                        continue
                response: RpcResponse = packet.payload
                if response.error is not None:
                    raise RpcError(response.error)
                return response.value, packet
            raise RpcTimeout(f"rpc {method} to {dst} timed out after {max_attempts} attempts")
        finally:
            del pending_map[rpc_id]  # only this frame removes a call's entry

    def notify(
        self,
        dst: str,
        method: str,
        args: Any,
        header: Optional[StaleSetHeader] = None,
    ) -> None:
        """Fire-and-forget request (no reply, no retransmission).

        Uses the reserved ``rpc_id`` 0: notifications never match a
        response, so they don't consume ids from the shared counter (which
        would inflate ids and muddy reply-cache keying diagnostics).
        """
        request = RpcRequest(0, method, args, self.addr)
        self.net.send(alloc_packet(self.addr, dst, request, header))

    def notify_many(
        self,
        pairs: Iterable[Tuple[str, Any]],
        method: str,
        header: Optional[StaleSetHeader] = None,
    ) -> None:
        """Fire-and-forget *method* to many destinations in one sweep.

        ``pairs`` yields ``(dst, args)``; *header* (shared, immutable) is
        attached to every packet.  Used for the aggregation ack multicast,
        where each recipient gets its own LSN payload under one REMOVE
        header.
        """
        addr = self.addr
        send = self.net.send
        for dst, args in pairs:
            send(alloc_packet(addr, dst, RpcRequest(0, method, args, addr), header))

    def multicast_call(
        self,
        dsts: List[str],
        method: str,
        args: Any,
        timeout_us: float = 100.0,
        max_attempts: int = 5,
    ) -> Generator:
        """Generator: call every destination, return list of values in order.

        Scatter-gather: all requests go out up front; responses decrement a
        counter on one shared completion event, and one shared timer
        retransmits to whichever destinations haven't answered.  Compared
        with per-destination :meth:`call` processes this costs O(1) events
        per round instead of O(fanout) processes.

        The :class:`RpcTimeout` raised when some destination stays silent
        carries what the others answered as ``.values`` (``None`` for the
        silent ones): a reply may hand over state that must not be lost
        with the call.
        """
        if not dsts:
            return []
        sim = self.sim
        gather = _Gather(None, len(dsts))
        ids: List[int] = []
        for index in range(len(dsts)):
            rpc_id = next(_rpc_ids)
            ids.append(rpc_id)
            self._pending[rpc_id] = (gather, index)
        addr = self.addr
        send = self.net.send
        pending_map = self._pending
        try:
            for attempt in range(max_attempts):
                attempt_timeout = timeout_us * (
                    _BACKOFF[attempt] if attempt < _BACKOFF_STEPS else _BACKOFF_CAP
                )
                for acked in pending_map:  # nothing completes mid-sweep
                    break
                for index, dst in enumerate(dsts):
                    rpc_id = ids[index]
                    if rpc_id not in pending_map:
                        continue  # already answered
                    if attempt > 0:
                        self.retransmits += 1
                    send(alloc_packet(addr, dst, RpcRequest(rpc_id, method, args, addr, acked)))
                # Same deadline/response race as `call`: one fresh event per
                # round, sentinel on timeout.  The extra remaining/error
                # check catches completions that land in the sentinel's
                # race window (the shared event can only trigger once).
                ev = sim.event()
                gather.event = ev
                self._deadlines.add(attempt_timeout, ev)
                result = yield ev
                if result is not _TIMED_OUT or gather.remaining == 0 or gather.error:
                    if gather.error is not None:
                        raise RpcError(gather.error)
                    return list(gather.values)
            timeout = RpcTimeout(
                f"rpc {method} multicast to {len(dsts)} hosts timed out "
                f"after {max_attempts} attempts"
            )
            timeout.values = list(gather.values)
            raise timeout
        finally:
            for rpc_id in ids:
                pending_map.pop(rpc_id, None)

    # -- dispatcher (the inbox entry calls these) ---------------------------------
    def _complete(self, response: RpcResponse, packet: Packet) -> None:
        """Route a response to its waiter."""
        pending_map = self._pending
        rpc_id = response.rpc_id
        if rpc_id not in pending_map:
            return  # duplicate, late, or notification echo
        waiter = pending_map[rpc_id]
        kind = waiter.__class__
        if kind is not tuple:
            if kind is Packet or waiter._triggered:  # reprolint: allow[private-access] hot path, mirrors Event.triggered
                # The retransmit timer's sentinel beat us at this timestamp;
                # stash the packet so the caller picks it up on resume
                # instead of paying a full retransmission round trip.
                pending_map[rpc_id] = packet
            else:
                waiter.succeed(packet)
            return
        # Multicast member: first response wins; removing the entry is what
        # makes later duplicates fall through to the `not in` check.
        del pending_map[rpc_id]
        gather, index = waiter
        if response.error is not None:
            if gather.error is None:
                gather.error = response.error
            if not gather.event._triggered:  # reprolint: allow[private-access] hot path
                gather.event.succeed()  # fail fast, mirroring AllOf semantics
            return
        gather.values[index] = response.value
        gather.remaining -= 1
        if gather.remaining == 0 and not gather.event._triggered:  # reprolint: allow[private-access] hot path
            gather.event.succeed()

    def _serve(
        self, request: RpcRequest, packet: Packet, handler: Optional[Handler]
    ) -> Generator:
        """Run *handler* for *request* and send its response packet, at most
        once per ``rpc_id`` for a request that wants a reply."""
        rpc_id = request.rpc_id
        wants_reply = rpc_id != 0
        replies = None
        if handler is None:
            if not wants_reply:
                return None
            value, error = None, f"no handler for method {request.method!r} on {self.addr}"
        else:
            if wants_reply:
                replies = self._replies[request.src]
                if request.acked > replies.acked:
                    replies.advance(request.acked)
                elif rpc_id < replies.acked:
                    return None  # late copy of a call its caller is done with
                if rpc_id in replies:
                    sent = replies[rpc_id]
                    if sent is not None:
                        self.net.send(sent.clone())
                    # else: first execution still running; drop the
                    # duplicate — the client retransmits if the reply is lost.
                    return None
                replies[rpc_id] = None
            error = None
            try:
                # The handler runs inside this generator (yield from) instead
                # of as a second spawned process; its events pass through.
                value = yield from handler(request, packet)
            except RpcError as exc:
                value, error = None, str(exc)
            except Exception as exc:  # noqa: BLE001 - a crashed handler must
                # not leave the caller retrying forever against an
                # in-progress marker; surface the bug as an error reply.
                value, error = None, f"EINTERNAL: {type(exc).__name__}: {exc}"
            if not wants_reply:
                return None
        dst, header = request.src, None
        if value.__class__ is Reply:
            reply = value
            value, error, header = reply.value, reply.error, reply.header
            dst = reply.dst or dst
        response = RpcResponse(rpc_id, value, error)
        sent = alloc_packet(self.addr, dst, response, header)
        if replies is not None:
            if rpc_id < replies.acked:
                del replies[rpc_id]  # abandoned meanwhile: nobody will ask again
            else:
                replies[rpc_id] = sent
        if self._alive:
            self.net.send(sent)
        return None

    def clear_reply_cache(self) -> None:
        """Drop at-most-once state, replies and watermarks (a server restart)."""
        self._replies.clear()
