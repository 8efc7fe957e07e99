"""Analyses over a :class:`~repro.analysis.trace.SimTracer` event stream.

Two detectors (DESIGN.md §12):

* :func:`lock_order_cycles` — builds the lock-order graph from the
  tracer's first-witness edges ("held A while acquiring B") and reports
  every elementary cycle.  A cycle means two workflows acquire the same
  locks in opposite orders: a potential deadlock even if this particular
  run happened not to interleave badly.
* :func:`race_findings` — surfaces the Eraser-style lockset violations
  the tracer recorded: a shared-and-written state location whose
  candidate lockset refined to empty.

:func:`analyze_report` formats both into a human-readable report with
process names, simulated timestamps, and acquisition stacks.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["lock_order_cycles", "race_findings", "analyze_report"]


def lock_order_cycles(tracer) -> List[Dict[str, Any]]:
    """Return every elementary cycle in the tracer's lock-order graph.

    Each cycle is a dict with ``labels`` (lock labels along the cycle)
    and ``witnesses`` (one per edge: the first observation of "held X
    while acquiring Y", with process name, sim time, and stacks).
    """
    adj: Dict[str, List[str]] = {}
    for (a, b) in tracer.order_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])

    cycles: List[List[str]] = []
    seen_cycles = set()

    # Iterative DFS from every node; record cycles through the root only,
    # canonicalised by rotation so each cycle is reported once.
    for root in adj:
        stack = [(root, iter(adj[root]))]
        path = [root]
        on_path = {root}
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt == root and len(path) > 1 or nxt == root == node:
                    cyc = path[:]
                    lo = cyc.index(min(cyc))
                    canon = tuple(cyc[lo:] + cyc[:lo])
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        cycles.append(cyc)
                elif nxt not in on_path and nxt > root:
                    # Only walk to higher-numbered nodes: every cycle is
                    # found from its minimum node, avoiding duplicates.
                    stack.append((nxt, iter(adj[nxt])))
                    path.append(nxt)
                    on_path.add(nxt)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())

    out = []
    for cyc in cycles:
        witnesses = []
        for i, a in enumerate(cyc):
            b = cyc[(i + 1) % len(cyc)]
            witnesses.append(tracer.order_edges[(a, b)])
        out.append(
            {
                "labels": list(cyc),
                "witnesses": witnesses,
            }
        )
    return out


def race_findings(tracer, include_reads: bool = False) -> List[Dict[str, Any]]:
    """The tracer's recorded lockset violations, as report-ready dicts.

    By default only ``"write-write"`` races are returned: two distinct
    processes wrote the location with no common lock held (by anyone —
    see :meth:`SimTracer.global_lockset`).  ``include_reads=True`` adds
    the ``"read-write"`` conflicts too; those are usually the servers'
    deliberate lock-free lookups, which are atomic single-key reads in
    the cooperative simulator and benign by design (DESIGN.md §12).
    """
    out = []
    for race in tracer.races:
        if race["kind"] == "read-write" and not include_reads:
            continue
        first, second = race["first"], race["second"]
        out.append(
            {
                "key": race["key"],
                "kind": race["kind"],
                "first_proc": first.proc,
                "first_time": first.time,
                "first_write": first.is_write,
                "first_stack": first.stack,
                "second_proc": second.proc,
                "second_time": second.time,
                "second_write": second.is_write,
                "second_stack": second.stack,
            }
        )
    return out


def _fmt_stack(stack, indent: str) -> str:
    if not stack:
        return f"{indent}(stack capture disabled)"
    return "\n".join(f"{indent}{frame}" for frame in stack)


def analyze_report(tracer, include_reads: bool = False) -> str:
    """Render cycles + races into a report string (empty-state friendly)."""
    lines: List[str] = []
    cycles = lock_order_cycles(tracer)
    races = race_findings(tracer, include_reads=include_reads)
    rw_conflicts = [r for r in tracer.races if r["kind"] == "read-write"]

    lines.append("== simulation analysis report ==")
    lines.append(
        f"lock events: {len(tracer.lock_events)}  "
        f"order edges: {len(tracer.order_edges)}  "
        f"state keys: {len(tracer.state_records)}"
    )

    lines.append("")
    lines.append(f"-- lock-order cycles: {len(cycles)} --")
    for n, cyc in enumerate(cycles, 1):
        chain = " -> ".join(cyc["labels"] + [cyc["labels"][0]])
        lines.append(f"[cycle {n}] {chain}")
        for w in cyc["witnesses"]:
            lines.append(
                f"  held {w['held']}[{w['held_mode']}] while acquiring "
                f"{w['acquired']}[{w['acquired_mode']}] "
                f"in process {w['proc']!r} at t={w['time']:.3f}us"
            )
            lines.append(_fmt_stack(w["stack"], "    "))

    lines.append("")
    lines.append(f"-- unsynchronized races: {len(races)} --")
    for n, race in enumerate(races, 1):
        kind1 = "write" if race["first_write"] else "read"
        kind2 = "write" if race["second_write"] else "read"
        lines.append(f"[race {n}] ({race['kind']}) state {race['key']!r}")
        lines.append(
            f"  {kind1} by {race['first_proc']!r} at t={race['first_time']:.3f}us"
        )
        lines.append(_fmt_stack(race["first_stack"], "    "))
        lines.append(
            f"  {kind2} by {race['second_proc']!r} at t={race['second_time']:.3f}us "
            f"with no common lock held"
        )
        lines.append(_fmt_stack(race["second_stack"], "    "))

    if not include_reads and rw_conflicts:
        lines.append("")
        lines.append(
            f"({len(rw_conflicts)} read/write conflict(s) under no common lock "
            f"suppressed: lock-free single-key reads are atomic in the "
            f"cooperative simulator; pass --include-reads to list them)"
        )

    if not cycles and not races:
        lines.append("")
        lines.append("no lock-order cycles or lockset races detected")
    return "\n".join(lines)
