"""Dynamic simulation tracing: lock/resource events and state accesses.

:class:`SimTracer` is the sink behind the opt-in instrumentation hooks in
:mod:`repro.sim.kernel` and :mod:`repro.sim.resources`.  While attached
to a :class:`~repro.sim.Simulator` it records, per simulated process:

* every lock/resource **acquire** and **release** (with mode, simulated
  timestamp, and an optional acquisition stack), and
* every **shared-state read/write** reported by the instrumentation
  proxies that :func:`instrument_server` wraps around a metadata
  server's KV store and change-log table.

The analyses over the recorded stream (lock-order cycles, lockset
races) live in :mod:`repro.analysis.detect`.

Cost model
----------
Detached (the default), the only residue in the hot kernel is a single
``sim.tracer is None`` test per resource acquire/release — the event
loop and the process trampoline are untouched.  Attaching swaps the
simulator's process class for :class:`_TracedProcess` (via
:meth:`Simulator.set_tracer`), which brackets every generator advance
with current-process bookkeeping; that cost exists only while tracing.

Attribution: the RPC layer runs a handler's first segment inline in the
inbox's frame (DESIGN.md §10) but already as its own process.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, List, Optional, Tuple

from ..sim.kernel import Process, Simulator
from ..sim.resources import Resource, RWLock

__all__ = ["SimTracer", "instrument_server", "LockEvent", "StateAccess"]

# Kernel/infrastructure frames stripped from acquisition stacks.
_STACK_NOISE = ("sim/kernel.py", "sim/resources.py", "analysis/trace.py")
_STACK_LIMIT = 16  # innermost frames kept per acquisition stack


def _lock_label(lock: Any) -> str:
    """A lock's identity in the trace: its name (class, server, key) —
    a server table makes a new object per busy period of a key, and
    ``id()`` is reused — or type and ``id()`` for an unnamed one."""
    name = getattr(lock, "name", "")
    return name or f"{type(lock).__name__}@{id(lock):#x}"


def _orderable(lock: Any) -> bool:
    """Locks that participate in the lock-order graph and in locksets.

    Mutual-exclusion-capable primitives only: RWLocks (a queued writer
    blocks later readers even in read mode) and capacity-1 resources.
    Counted pools (CPU cores) cannot deadlock by ordering and would
    drown the graph in benign edges.
    """
    if isinstance(lock, RWLock):
        return True
    return isinstance(lock, Resource) and lock.capacity == 1


class LockEvent:
    """One acquire/release observation."""

    __slots__ = ("kind", "time", "proc", "label", "mode", "stack")

    def __init__(self, kind, time, proc, label, mode, stack):
        self.kind = kind
        self.time = time
        self.proc = proc
        self.label = label  # the lock's identity, see _lock_label
        self.mode = mode
        self.stack = stack

    def __repr__(self) -> str:
        return (
            f"LockEvent({self.kind} {self.label}[{self.mode}] by {self.proc!r} "
            f"@t={self.time:.3f})"
        )


class StateAccess:
    """One shared-state read or write observation."""

    __slots__ = ("is_write", "time", "proc", "key", "lockset", "stack")

    def __init__(self, is_write, time, proc, key, lockset, stack):
        self.is_write = is_write
        self.time = time
        self.proc = proc
        self.key = key
        self.lockset = lockset
        self.stack = stack


class _Hold:
    __slots__ = ("label", "mode", "time", "stack")

    def __init__(self, label, mode, time, stack):
        self.label = label
        self.mode = mode
        self.time = time
        self.stack = stack


class _TracedProcess(Process):
    """Process subclass installed while a tracer is attached.

    Brackets every generator advance so lock/state hooks can attribute
    activity to the running process.  Never constructed when tracing is
    off, so the stock :class:`Process` trampoline stays untouched.
    """

    __slots__ = ()

    def _resume(self, event) -> None:
        tracer = self.sim.tracer
        if tracer is None:
            Process._resume(self, event)
            return
        prev = tracer.current
        tracer.current = self
        try:
            Process._resume(self, event)
        finally:
            tracer.current = prev


class SimTracer:
    """Records per-process lock/resource and shared-state activity.

    Attach to a *fresh* simulator before spawning processes::

        tracer = SimTracer()
        tracer.attach(sim)
        ... run the workload ...
        tracer.detach()

    then run the analyses in :mod:`repro.analysis.detect`.
    """

    def __init__(self, capture_stacks: bool = True):
        self.capture_stacks = capture_stacks
        self.sim: Optional[Simulator] = None
        #: Set by the kernel: the process currently advancing (or None).
        self.current: Optional[Process] = None
        #: Chronological acquire/release observations.
        self.lock_events: List[LockEvent] = []
        #: (held label, acquired label) -> witness dict, first sighting.
        self.order_edges: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.state_records: Dict[Any, Dict[str, Any]] = {}
        #: Race findings: dicts with the two conflicting accesses.
        self.races: List[Dict[str, Any]] = []
        self._holds: Dict[int, List[_Hold]] = {}  # id(proc) -> active holds

    # -- lifecycle -------------------------------------------------------
    def attach(self, sim: Simulator) -> "SimTracer":
        if self.sim is not None:
            raise RuntimeError("tracer already attached")
        self.sim = sim
        sim.set_tracer(self, _TracedProcess)
        return self

    def detach(self) -> None:
        if self.sim is not None:
            self.sim.set_tracer(None)
            self.sim = None
            self.current = None

    # -- helpers ---------------------------------------------------------
    def _proc_name(self) -> str:
        proc = self.current
        return proc.name if proc is not None else "<kernel>"

    def _proc_key(self) -> int:
        proc = self.current
        return id(proc) if proc is not None else 0

    def _stack(self) -> Optional[List[str]]:
        if not self.capture_stacks:
            return None
        frames = traceback.extract_stack(limit=_STACK_LIMIT + 4)
        out = []
        for fr in frames:
            fn = fr.filename.replace("\\", "/")
            if any(fn.endswith(noise) for noise in _STACK_NOISE):
                continue
            out.append(f"{fn.rsplit('/', 1)[-1]}:{fr.lineno} in {fr.name}")
        return out[-_STACK_LIMIT:]

    # -- hooks called by repro.sim.resources ------------------------------
    def on_acquire(self, lock: Any, mode: str) -> None:
        """A process requested *lock*; recorded at request time.

        A suspended process cannot act between its acquire request and
        the grant, so charging the hold from the request keeps per-
        process hold tracking exact for lock-order purposes.
        """
        t = self.sim.now if self.sim is not None else 0.0
        label = _lock_label(lock)
        stack = self._stack()
        pname = self._proc_name()
        self.lock_events.append(LockEvent("acquire", t, pname, label, mode, stack))
        if not _orderable(lock):
            return
        holds = self._holds.setdefault(self._proc_key(), [])
        for prev in holds:
            if prev.label == label:
                continue
            edge = (prev.label, label)
            if edge not in self.order_edges:
                self.order_edges[edge] = {
                    "proc": pname,
                    "time": t,
                    "held": prev.label,
                    "held_mode": prev.mode,
                    "held_stack": prev.stack,
                    "acquired": label,
                    "acquired_mode": mode,
                    "stack": stack,
                }
        holds.append(_Hold(label, mode, t, stack))

    def on_release(self, lock: Any, mode: str) -> None:
        t = self.sim.now if self.sim is not None else 0.0
        label = _lock_label(lock)
        self.lock_events.append(LockEvent("release", t, self._proc_name(), label, mode, None))
        if not _orderable(lock):
            return
        # Releases may come from a different process than the acquirer
        # (deferred unlock tokens, aggregation acks), so fall back to a
        # global scan when the releasing process holds no matching entry.
        holds = self._holds.get(self._proc_key())
        if holds is not None and self._drop_hold(holds, label, mode):
            return
        for other in self._holds.values():
            if other is not holds and self._drop_hold(other, label, mode):
                return

    @staticmethod
    def _drop_hold(holds: List[_Hold], label: str, mode: str) -> bool:
        for i, h in enumerate(holds):
            if h.label == label and h.mode == mode:
                del holds[i]
                return True
        return False

    def global_lockset(self) -> frozenset:
        """Every orderable lock currently held by *any* process.

        Locksets are global rather than per-process because the server
        workflows use transaction-scoped custody: rename participants
        acquire inode locks in the ``rename_lock`` handler and write in
        the ``rename_commit`` handler (a different process), and async
        updates park locks in an unlock-token table until the switch's
        ``mark_entry`` arrives.  A per-process (classic Eraser) lockset
        would be empty at those writes and flag every 2PC commit as a
        race.  "Held by someone" over-approximates protection — a lock
        held coincidentally elsewhere can mask a real race — but in the
        cooperative simulator it is the faithful reading of "this access
        happened inside the lock's critical section".
        """
        out = set()
        for holds in self._holds.values():
            for h in holds:
                out.add(h.label)
        return frozenset(out)

    # -- hooks called by the state proxies --------------------------------
    def on_state_access(self, key: Any, is_write: bool) -> None:
        """Eraser-style lockset refinement over one shared-state location.

        Per location the tracer refines two candidate sets over the
        :meth:`global_lockset` at each access: one over **writes only**
        and one over **all accesses**.  Once the location is shared:

        * two distinct writers with an empty write-lockset ⇒ a
          ``"write-write"`` race (always reported);
        * a writer and a distinct reader with an empty all-lockset ⇒ a
          ``"read-write"`` conflict.  Single-key reads are atomic in the
          cooperative simulator and the servers deliberately serve some
          lookups lock-free, so these are reported separately (opt-in
          via ``race_findings(tracer, include_reads=True)``).
        """
        t = self.sim.now if self.sim is not None else 0.0
        pkey = self._proc_key()
        ls = self.global_lockset()
        access = StateAccess(is_write, t, self._proc_name(), key, ls, self._stack())
        rec = self.state_records.get(key)
        if rec is None:
            self.state_records[key] = {
                "owner": pkey,
                "all_lockset": ls,
                "ws_lockset": ls if is_write else None,
                "writers": {pkey} if is_write else set(),
                "readers": set() if is_write else {pkey},
                "last_write": access if is_write else None,
                "last_read": None if is_write else access,
                "reported": set(),
            }
            return
        if rec["owner"] == pkey:
            # Still exclusive to one process: refresh, don't refine.
            rec["all_lockset"] = ls
            if is_write:
                rec["ws_lockset"] = ls
        else:
            rec["owner"] = -1  # shared from now on
            rec["all_lockset"] = rec["all_lockset"] & ls
            if is_write:
                if rec["ws_lockset"] is None or rec["writers"] <= {pkey}:
                    # First writer (or still a single writer): no
                    # refinement across one process's own writes.
                    rec["ws_lockset"] = ls
                else:
                    rec["ws_lockset"] = rec["ws_lockset"] & ls
        (rec["writers"] if is_write else rec["readers"]).add(pkey)
        if rec["owner"] == -1:
            if (
                is_write
                and len(rec["writers"]) >= 2
                and not rec["ws_lockset"]
                and "write-write" not in rec["reported"]
            ):
                rec["reported"].add("write-write")
                self.races.append(
                    {
                        "key": key,
                        "kind": "write-write",
                        "first": rec["last_write"] or rec["last_read"],
                        "second": access,
                    }
                )
            if (
                not rec["all_lockset"]
                and len(rec["writers"] | rec["readers"]) >= 2
                and rec["writers"]
                and rec["readers"]
                and "read-write" not in rec["reported"]
            ):
                prior = rec["last_read"] if is_write else rec["last_write"]
                if prior is not None:
                    rec["reported"].add("read-write")
                    self.races.append(
                        {"key": key, "kind": "read-write", "first": prior, "second": access}
                    )
        if is_write:
            rec["last_write"] = access
        else:
            rec["last_read"] = access


# ---------------------------------------------------------------------------
# server-state instrumentation proxies
# ---------------------------------------------------------------------------
class _KVTxnProxy:
    """Transaction wrapper: records buffered writes at staging time."""

    def __init__(self, txn, tracer: SimTracer, addr: str):
        self._txn = txn
        self._tracer = tracer
        self._addr = addr

    def __getattr__(self, name):
        return getattr(self._txn, name)

    def put(self, key, value):
        self._tracer.on_state_access(("kv", self._addr, key), True)
        return self._txn.put(key, value)

    def delete(self, key):
        self._tracer.on_state_access(("kv", self._addr, key), True)
        return self._txn.delete(key)


class _KVProxy:
    """Forwarding wrapper around a server's KV store, keyed per KV key."""

    def __init__(self, kv, tracer: SimTracer, addr: str):
        self._kv = kv
        self._tracer = tracer
        self._addr = addr

    def __getattr__(self, name):
        return getattr(self._kv, name)

    def __contains__(self, key):
        self._tracer.on_state_access(("kv", self._addr, key), False)
        return key in self._kv

    def __len__(self):
        return len(self._kv)

    def get(self, key):
        self._tracer.on_state_access(("kv", self._addr, key), False)
        return self._kv.get(key)

    def get_or_none(self, key):
        self._tracer.on_state_access(("kv", self._addr, key), False)
        return self._kv.get_or_none(key)

    def put(self, key, value, **kwargs):
        self._tracer.on_state_access(("kv", self._addr, key), True)
        return self._kv.put(key, value, **kwargs)

    def delete(self, key, **kwargs):
        self._tracer.on_state_access(("kv", self._addr, key), True)
        return self._kv.delete(key, **kwargs)

    def scan_prefix(self, prefix):
        self._tracer.on_state_access(("kv-scan", self._addr, tuple(prefix)), False)
        return self._kv.scan_prefix(prefix)

    def transaction(self):
        return _KVTxnProxy(self._kv.transaction(), self._tracer, self._addr)


class _ChangeLogProxy:
    """Forwarding wrapper around a server's change-log table.

    Appends are recorded per directory; group drains record a write on
    every directory in the group (that is what the drain mutates).
    """

    def __init__(self, table, tracer: SimTracer, addr: str):
        self._table = table
        self._tracer = tracer
        self._addr = addr

    def __getattr__(self, name):
        return getattr(self._table, name)

    def _key(self, dir_id):
        return ("changelog", self._addr, dir_id)

    def append(self, dir_id, fp, entry, lsn, now):
        self._tracer.on_state_access(self._key(dir_id), True)
        return self._table.append(dir_id, fp, entry, lsn, now)

    def extend(self, dir_id, fp, entries, lsns, now):
        self._tracer.on_state_access(self._key(dir_id), True)
        return self._table.extend(dir_id, fp, entries, lsns, now)

    def drain_group(self, fp):
        for log in self._table.logs_in_group(fp):
            self._tracer.on_state_access(self._key(log.dir_id), True)
        return self._table.drain_group(fp)

    def logs_in_group(self, fp):
        for log in self._table.logs_in_group(fp):
            self._tracer.on_state_access(self._key(log.dir_id), False)
        return self._table.logs_in_group(fp)


def instrument_server(tracer: SimTracer, server) -> None:
    """Wrap *server*'s shared state so accesses report to *tracer*.

    Replaces ``server.kv`` and ``server.changelogs`` with forwarding
    proxies.  Analysis-only: never called on un-traced runs, so the
    production attribute access path is a plain instance attribute.
    """
    server.kv = _KVProxy(server.kv, tracer, server.addr)
    if hasattr(server, "changelogs"):
        server.changelogs = _ChangeLogProxy(server.changelogs, tracer, server.addr)
