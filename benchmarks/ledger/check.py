"""Output checks: a client-side history, its audit, and the directory read-back.

The paper's guarantee is that a directory read observes every completed
update.  The checked repeat records every call the workload makes at the
LibFS boundary (invocation time, completion time, outcome), then:

* audits each negative reply (ENOENT / EEXIST): with 64 operations in
  flight the mixes race by design (a stat can overtake the create of its
  file, two deletes can pick the same file), so a negative reply is a
  correct answer when the history allows it and a failed operation when
  it does not;
* tallies the successful creates, deletes and renames per directory,
  settles the cluster, and requires ``statdir``'s ``entry_count`` ==
  ``len(readdir entries)`` == bootstrap count + tally for every
  directory, with no change-log entry left pending.

Timed and traced repeats run the bare thunks; their end state is read
back the same way and must hash to the checked repeat's digest.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.core import FSError
from repro.workloads import OpStream

# (op, args, invoked_us, completed_us, outcome); outcome is "ok" or an error code.
Record = Tuple[str, tuple, float, float, str]

_OPS = ("create", "delete", "rename", "stat", "open", "close", "statdir", "readdir")


class _RecordingFS:
    """A LibFS stand-in handed to thunks: same ops, every call recorded."""

    def __init__(self, fs, records: List[Record]):
        self.sim = fs.sim
        for op in _OPS:
            setattr(self, op, self._recorded(op, getattr(fs, op), records))

    def _recorded(self, op: str, method, records: List[Record]):
        sim = self.sim

        def call(*args):
            invoked = sim.now
            try:
                value = yield from method(*args)
            except FSError as exc:
                records.append((op, args, invoked, sim.now, exc.code))
                raise
            status = value.get("status", "ok") if isinstance(value, dict) else "ok"
            records.append((op, args, invoked, sim.now, status))
            return value

        return call


class History:
    """Everything the workload's clients invoked and what came back."""

    def __init__(self):
        self.records: List[Record] = []
        self._proxies: Dict[int, _RecordingFS] = {}

    def wrap(self, stream) -> OpStream:
        return _CheckedStream(stream, self)

    def recording(self, fs) -> _RecordingFS:
        proxy = self._proxies.get(id(fs))
        if proxy is None:
            proxy = self._proxies[id(fs)] = _RecordingFS(fs, self.records)
        return proxy


class _CheckedStream(OpStream):
    """Hands out the inner stream's thunks, run against a recording LibFS."""

    def __init__(self, stream, history: History):
        super().__init__(stream.name)
        self._stream = stream
        self._history = history

    def next_thunk(self):
        thunk = self._stream.take()
        history = self._history

        def checked(fs):
            return thunk(history.recording(fs))

        checked.op_name = thunk.op_name
        return checked


def _parent(path: str) -> str:
    return path.rsplit("/", 1)[0]


def audit(records: List[Record], population) -> Tuple[Dict[str, int], List[str]]:
    """Per-directory net entry change, and the replies no history explains.

    The rules only flag what is surely wrong.  ENOENT on a path is wrong
    when a create of it had completed (or bootstrap made it) before the
    call was invoked and no delete or rename of it was invoked before the
    call completed.  EEXIST is wrong when nothing else ever tried to
    create the path before the call completed.  Any other error is wrong.
    """
    pre_dirs = set(population.dir_paths)
    prefix = population.file_prefix

    def bootstrapped(path: str) -> bool:
        directory, name = path.rsplit("/", 1)
        index = name[len(prefix):]
        return (
            directory in pre_dirs
            and name.startswith(prefix)
            and index.isdigit()
            and int(index) < population.files_per_dir
        )

    creators = defaultdict(list)    # path -> [(record index, invoked, completed, outcome)]
    removers = defaultdict(list)
    tally: Dict[str, int] = defaultdict(int)
    for i, (op, args, invoked, completed, outcome) in enumerate(records):
        made = gone = None
        if op == "create":
            made = args[0]
        elif op == "delete":
            gone = args[0]
        elif op == "rename":
            gone, made = args[0], args[1]
        if made is not None:
            creators[made].append((i, invoked, completed, outcome))
        if gone is not None:
            removers[gone].append((i, invoked, completed, outcome))
        if outcome == "ok":
            if made is not None:
                tally[_parent(made)] += 1
            if gone is not None:
                tally[_parent(gone)] -= 1

    unexplained: List[str] = []
    for i, (op, args, invoked, completed, outcome) in enumerate(records):
        if outcome == "ok":
            continue
        explained = False
        if outcome == "ENOENT" and op in ("delete", "stat", "open", "close", "rename"):
            path = args[0]
            existed = bootstrapped(path) or any(
                out == "ok" and done <= invoked for _, _, done, out in creators[path]
            )
            maybe_removed = any(
                j != i and begun < completed for j, begun, _, _ in removers[path]
            )
            explained = maybe_removed or not existed
        elif outcome == "EEXIST" and op in ("create", "rename"):
            path = args[-1]
            explained = bootstrapped(path) or any(
                j != i and begun < completed for j, begun, _, _ in creators[path]
            )
        if not explained:
            unexplained.append(f"{op}{args} -> {outcome} at {completed:.3f} us")
    return dict(tally), unexplained


def read_back(cluster, population) -> Tuple[Dict[str, int], List[str]]:
    """Settle, then read every directory both ways.

    Returns ``{directory: entry_count}`` and the problems found: a
    directory whose ``statdir`` count and ``readdir`` listing disagree, or
    change-log entries still pending after the cluster settled.
    """
    problems: List[str] = []
    cluster.settle()
    pending = cluster.total_pending_entries()
    if pending:
        problems.append(f"{pending} change-log entries still pending after settle()")
    fs = cluster.client(0)
    counts: Dict[str, int] = {}
    for directory in population.dir_paths:
        count = cluster.run_op(fs.statdir(directory))["entry_count"]
        listed = len(cluster.run_op(fs.readdir(directory))["entries"])
        if count != listed:
            problems.append(
                f"{directory}: statdir says {count} entries, readdir lists {listed}"
            )
        counts[directory] = count
    return counts, problems


def compare_with_tally(counts: Dict[str, int], tally: Dict[str, int], population) -> List[str]:
    """Every directory must hold its bootstrap files plus the tallied change."""
    problems = []
    for directory, count in counts.items():
        expected = population.files_per_dir + tally.get(directory, 0)
        if count != expected:
            problems.append(
                f"{directory}: holds {count} entries, completed updates say {expected}"
            )
    return problems


def state_digest(counts: Dict[str, int]) -> str:
    text = ";".join(f"{d}={n}" for d, n in sorted(counts.items()))
    return hashlib.sha256(text.encode()).hexdigest()
