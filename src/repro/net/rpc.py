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
* **Inline dispatch**: an inbound request is served by
  :meth:`Simulator.adopt`, which drives the serve generator in the
  inbox's frame — no boot entry — and, its handle dropped, no completion
  entry either.  The handler itself runs via ``yield from`` inside the
  serve generator, so the blocking path costs one process instead of two.
* **Scatter-gather multicast**: :meth:`RpcNode.multicast_call` sends all
  requests up front and counts completions on one shared event instead of
  spawning a process per destination; one shared deadline drives
  retransmission to the still-unanswered subset.
* **One retransmit deadline per node** (:class:`_Deadlines`) instead of
  a timer per attempt, and **an inbox that is its own kernel entry**
  (:class:`_Inbox`) instead of a store, a getter event and a dispatcher
  process.
* **Validation-free packets**: outbound packets come from
  :func:`alloc_packet`, which skips the port/header pairing check the
  public constructor makes (the pairing is correct by construction here).
* **Acknowledged replies**: a request carries ``acked``, its sender's
  lowest outstanding ``rpc_id``; a server keeps per source that watermark
  and the replies above it (:class:`_Replies`), never runs a request
  below it, and so holds O(calls in flight) entries, not a history.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import defaultdict, deque
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

from ..errors import ReproError
from ..sim import Event, Simulator
from .packet import (
    Packet,
    REGULAR_PORT,
    STALESET_PORT,
    StaleSetHeader,
    alloc_packet,
)
from .topology import Network

__all__ = ["RpcRequest", "RpcResponse", "Reply", "RpcError", "RpcTimeout", "RpcNode"]


class RpcError(ReproError):
    """An application-level error returned by the remote handler."""


class RpcTimeout(RpcError):
    """All retransmissions of a request went unanswered."""


# rpc_id 0 is reserved for one-way notifications (they never match a
# response, so they don't consume ids from the shared counter).
_rpc_ids = itertools.count(1)

#: Sentinel distinguishing "no cache entry" from a cached ``None`` marker.
_MISSING = object()

#: Sentinel delivered to a waiting call when its retransmit deadline
#: fires first.  Racing the deadline and the response on ONE event
#: (whoever triggers first wins; the loser sees ``triggered`` and backs
#: off) is cheaper than an AnyOf combinator per attempt.
_TIMED_OUT = object()


class RpcRequest:
    """The request payload carried inside a packet.

    Hand-written ``__slots__`` class (not a dataclass): one request is
    allocated per transmission attempt, so skipping the per-instance
    ``__dict__`` is measurable on the op fast path.
    """

    __slots__ = ("rpc_id", "method", "args", "src", "wants_reply", "attempt", "acked")

    def __init__(
        self,
        rpc_id: int,
        method: str,
        args: Any,
        src: str,
        wants_reply: bool = True,
        attempt: int = 0,
        acked: int = 0,
    ):
        self.rpc_id = rpc_id
        self.method = method
        self.args = args
        self.src = src
        self.wants_reply = wants_reply
        self.attempt = attempt
        self.acked = acked  # sender's lowest outstanding rpc_id (0: unsaid)

    def __repr__(self) -> str:
        return (
            f"RpcRequest(rpc_id={self.rpc_id}, method={self.method!r}, "
            f"src={self.src!r}, attempt={self.attempt})"
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
    ``size_bytes`` sizes the response packet.
    """

    __slots__ = ("value", "error", "header", "dst", "size_bytes")

    def __init__(
        self,
        value: Any = None,
        error: Optional[str] = None,
        header: Optional[StaleSetHeader] = None,
        dst: Optional[str] = None,
        size_bytes: int = 128,
    ):
        self.value = value
        self.error = error
        self.header = header
        self.dst = dst
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        return (
            f"Reply(value={self.value!r}, error={self.error!r}, "
            f"header={self.header!r}, dst={self.dst!r})"
        )


#: Handler signature: (request, packet) -> generator returning value|Reply.
Handler = Callable[[RpcRequest, Packet], Generator]


class _Pending:
    """Bookkeeping for one in-flight rpc_id.

    For a plain :meth:`RpcNode.call`, ``event`` fires with the response and
    ``packet`` carries the response packet back to the caller.  For a
    multicast member, ``gather``/``index`` route the value into the shared
    :class:`_Gather` instead (and the entry is removed on first response,
    which is also what dedupes duplicates).
    """

    __slots__ = ("event", "packet", "response", "gather", "index")

    def __init__(
        self,
        event: Optional[Event],
        gather: Optional["_Gather"] = None,
        index: int = 0,
    ):
        self.event = event
        self.packet: Optional[Packet] = None
        # A response that landed in the race window after the retransmit
        # timer's sentinel fired but before the caller resumed.
        self.response: Optional[RpcResponse] = None
        self.gather = gather
        self.index = index


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
        record = (sim.now + timeout_us, sim.reserve_seq(), waiter)
        records = self.records
        if records and record < records[-1]:
            insort(records, record)
        else:
            records.append(record)
        self._arm(record)

    def _arm(self, record: Tuple[float, int, Event]) -> None:
        """Push an entry for *record* unless a live one is at or before it."""
        live = self.live
        if not live or record < live[-1]:
            live.append(record)
            self.sim.schedule_at(record[0], self, record[1])

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
                    self._arm(head)
                    return
                waiter.succeed(_TIMED_OUT)
            records.popleft()


class _Inbox(Event):
    """A host's inbound queue that is its own kernel entry.

    ``put`` queues the packet and, unless armed, queues the inbox at
    ``(now, next tick)`` on the kernel's ready queue; the pop hands the
    node every queued packet in arrival order, so one delivered meanwhile
    rides the first's entry.
    """

    __slots__ = ("node", "items", "armed")

    def __init__(self, node: "RpcNode"):
        Event.__init__(self, node.sim)
        self.node = node
        self.items: Deque[Packet] = deque()
        self.armed = False

    def put(self, packet: Packet) -> None:
        self.items.append(packet)
        if not self.armed:
            self.armed = True
            sim = self.sim
            # Inlined Event.succeed's push: runs once per delivered packet.
            sim._ready.append((sim.now, next(sim._counter), self))  # reprolint: allow[private-access] documented scheduler fast path

    def _run_callbacks(self) -> None:
        items = self.items
        on_packet = self.node._on_packet
        while items:
            on_packet(items.popleft())
        self.armed = False


class _Replies(dict):
    """One caller's replies on a server: ``rpc_id`` -> :class:`Reply`
    (``None`` while the first execution runs), in arrival order — id order
    unless the fabric reorders — above ``acked``, its highest watermark."""

    __slots__ = ("acked",)

    def __init__(self) -> None:
        self.acked = 0

    def advance(self, acked: int) -> None:
        """Forget the replies below the caller's new watermark (a marker
        stays until its handler returns; a reply that arrived out of id
        order goes with the later id it arrived behind)."""
        self.acked = acked
        done = []
        for rpc_id, reply in self.items():
            if rpc_id >= acked:
                break
            if reply is not None:
                done.append(rpc_id)
        for rpc_id in done:
            del self[rpc_id]


class RpcNode:  # reprolint: allow[RL006] one endpoint per server/client, built at boot
    """One host's RPC endpoint: dispatcher, handlers, and outgoing calls."""

    def __init__(self, sim: Simulator, net: Network, addr: str):
        self.sim = sim
        self.net = net
        self.addr = addr
        self._inbox = net.attach(addr, _Inbox(self))
        self._deadlines = _Deadlines(sim)
        self._handlers: Dict[str, Handler] = {}
        # In rpc_id order (ids only grow): the first key is the `acked`
        # every request carries.
        self._pending: Dict[int, _Pending] = {}
        self._replies: Dict[str, _Replies] = defaultdict(_Replies)  # by source addr
        self._raw_taps: List[Callable[[Packet], bool]] = []
        self._alive = True
        self.retransmits = 0

    # -- registration --------------------------------------------------------
    def register(self, method: str, handler: Handler) -> None:
        """Install *handler* for *method*; replaces any existing one."""
        self._handlers[method] = handler

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
        make_header: Optional[Callable[[int], StaleSetHeader]] = None,
        timeout_us: float = 100.0,
        max_attempts: int = 5,
        size_bytes: int = 128,
    ) -> Generator:
        """Generator: perform an RPC and return ``(value, response_packet)``.

        ``make_header(attempt)`` builds a fresh stale-set header per
        transmission — REMOVE requests need a new SEQ per resend (§4.4.1).
        Raises :class:`RpcTimeout` after ``max_attempts`` silent attempts
        and :class:`RpcError` for application errors.
        """
        rpc_id = next(_rpc_ids)
        pending = _Pending(event=None)
        self._pending[rpc_id] = pending
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
                attempt_timeout = timeout_us * min(2 ** attempt, 64)
                request = RpcRequest(
                    rpc_id, method, args, self.addr, True, attempt, next(iter(self._pending))
                )
                header = make_header(attempt) if make_header else None
                port = STALESET_PORT if header is not None else REGULAR_PORT
                self.net.send(
                    alloc_packet(self.addr, dst, request, port, header, size_bytes)
                )
                # Race the response against the retransmit deadline on ONE
                # fresh event (no AnyOf combinator): whichever triggers it
                # first wins, the loser sees `triggered` and backs off.
                ev = sim.event()
                pending.event = ev
                set_deadline(attempt_timeout, ev)
                result = yield ev
                if result is _TIMED_OUT:
                    result = pending.response  # may have landed in the race
                    if result is None:         # window at this timestamp
                        continue
                response: RpcResponse = result
                if response.error is not None:
                    raise RpcError(response.error)
                return response.value, pending.packet
            raise RpcTimeout(f"rpc {method} to {dst} timed out after {max_attempts} attempts")
        finally:
            self._pending.pop(rpc_id, None)

    def notify(
        self,
        dst: str,
        method: str,
        args: Any,
        header: Optional[StaleSetHeader] = None,
        size_bytes: int = 128,
    ) -> None:
        """Fire-and-forget request (no reply, no retransmission).

        Uses the reserved ``rpc_id`` 0: notifications never match a
        response, so they don't consume ids from the shared counter (which
        would inflate ids and muddy reply-cache keying diagnostics).
        """
        request = RpcRequest(
            rpc_id=0, method=method, args=args, src=self.addr, wants_reply=False
        )
        port = STALESET_PORT if header is not None else REGULAR_PORT
        self.net.send(alloc_packet(self.addr, dst, request, port, header, size_bytes))

    def notify_many(
        self,
        pairs: Iterable[Tuple[str, Any]],
        method: str,
        header: Optional[StaleSetHeader] = None,
        size_bytes: int = 128,
    ) -> None:
        """Fire-and-forget *method* to many destinations in one sweep.

        ``pairs`` yields ``(dst, args)``; *header* (shared, immutable) is
        attached to every packet.  Used for the aggregation ack multicast,
        where each recipient gets its own LSN payload under one REMOVE
        header.
        """
        addr = self.addr
        send = self.net.send
        port = STALESET_PORT if header is not None else REGULAR_PORT
        for dst, args in pairs:
            request = RpcRequest(
                rpc_id=0, method=method, args=args, src=addr, wants_reply=False
            )
            send(alloc_packet(addr, dst, request, port, header, size_bytes))

    def multicast_call(
        self,
        dsts: List[str],
        method: str,
        args: Any,
        timeout_us: float = 100.0,
        max_attempts: int = 5,
        size_bytes: int = 128,
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
            self._pending[rpc_id] = _Pending(None, gather, index)
        addr = self.addr
        send = self.net.send
        pending_map = self._pending
        try:
            for attempt in range(max_attempts):
                attempt_timeout = timeout_us * min(2 ** attempt, 64)
                acked = next(iter(pending_map))  # nothing completes mid-sweep
                for index, dst in enumerate(dsts):
                    rpc_id = ids[index]
                    if rpc_id not in pending_map:
                        continue  # already answered
                    if attempt > 0:
                        self.retransmits += 1
                    request = RpcRequest(rpc_id, method, args, addr, True, attempt, acked)
                    send(alloc_packet(addr, dst, request, REGULAR_PORT, None, size_bytes))
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

    def send_response(
        self,
        request: RpcRequest,
        reply: Reply,
        request_packet: Packet,
    ) -> None:
        """Transmit the response packet for *request* according to *reply*."""
        response = RpcResponse(rpc_id=request.rpc_id, value=reply.value, error=reply.error)
        dst = reply.dst or request.src
        port = STALESET_PORT if reply.header is not None else REGULAR_PORT
        self.net.send(
            alloc_packet(self.addr, dst, response, port, reply.header, reply.size_bytes)
        )

    # -- dispatcher -------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        """Handle one inbound packet (called from the inbox's entry)."""
        if not self._alive:
            # Crashed host: packets fall on the floor.
            return
        for tap in self._raw_taps:
            if tap(packet):
                return
        payload = packet.payload
        if isinstance(payload, RpcResponse):
            self._complete(payload, packet)
        elif isinstance(payload, RpcRequest):
            # Inline dispatch: the serve generator runs in this frame up to
            # its first pending event; nobody observes the continuation.
            self.sim.adopt(
                self._serve(payload, packet), f"serve-{payload.method}@{self.addr}"
            )
        # Unknown payloads are dropped silently (UDP semantics).

    def _complete(self, response: RpcResponse, packet: Packet) -> None:
        """Route a response to its waiter."""
        pending = self._pending.get(response.rpc_id)
        if pending is None:
            return  # duplicate, late, or notification echo
        gather = pending.gather
        if gather is None:
            ev = pending.event
            if ev is None or ev._triggered:  # reprolint: allow[private-access] hot path, mirrors Event.triggered
                # The retransmit timer's sentinel beat us at this timestamp;
                # stash the response so the caller picks it up on resume
                # instead of paying a full retransmission round trip.
                pending.response = response
                pending.packet = packet
                return
            pending.packet = packet
            ev.succeed(response)
            return
        # Multicast member: first response wins; removing the entry is what
        # makes later duplicates fall through to the `pending is None` path.
        del self._pending[response.rpc_id]
        if response.error is not None:
            if gather.error is None:
                gather.error = response.error
            if not gather.event._triggered:  # reprolint: allow[private-access] hot path
                gather.event.succeed()  # fail fast, mirroring AllOf semantics
            return
        gather.values[pending.index] = response.value
        gather.remaining -= 1
        if gather.remaining == 0 and not gather.event._triggered:  # reprolint: allow[private-access] hot path
            gather.event.succeed()

    def _serve(self, request: RpcRequest, packet: Packet) -> Generator:
        handler = self._handlers.get(request.method)
        if handler is None:
            if request.wants_reply:
                self.send_response(
                    request,
                    Reply(error=f"no handler for method {request.method!r} on {self.addr}"),
                    packet,
                )
            return None
        if request.wants_reply:
            rpc_id = request.rpc_id
            replies = self._replies[request.src]
            if request.acked > replies.acked:
                replies.advance(request.acked)
            elif rpc_id < replies.acked:
                return None  # late copy of a call its caller is done with
            cached = replies.get(rpc_id, _MISSING)
            if cached is not _MISSING:
                if cached is not None:
                    self.send_response(request, cached, packet)
                # else: first execution still running; drop the duplicate —
                # the client will retransmit again if the reply is lost.
                return None
            replies[rpc_id] = None
        try:
            # The handler runs inside this generator (yield from) instead of
            # as a second spawned process; its events pass straight through.
            result = yield from handler(request, packet)
        except RpcError as exc:
            result = Reply(error=str(exc))
        except Exception as exc:  # noqa: BLE001 - a crashed handler must not
            # leave the caller retrying forever against an in-progress
            # reply-cache marker; surface the bug as an error reply.
            result = Reply(error=f"EINTERNAL: {type(exc).__name__}: {exc}")
        reply = result if isinstance(result, Reply) else Reply(value=result)
        if request.wants_reply:
            if rpc_id < replies.acked:
                del replies[rpc_id]  # abandoned meanwhile: nobody will ask again
            else:
                replies[rpc_id] = reply
            if self._alive:
                self.send_response(request, reply, packet)
        return None

    def clear_reply_cache(self) -> None:
        """Drop at-most-once state, replies and watermarks (a server restart)."""
        self._replies.clear()
