"""One repeat of one workload in a fresh process: set up, warm up, run the window, report.

run.py spawns this once per repeat with ``PYTHONHASHSEED=0`` and reads
the one JSON object it prints.  Three modes:

* ``timed``   bare thunks, no profiler: the host-time numbers;
* ``checked`` every LibFS call recorded and audited (check.py); its host
  times are discarded, which also makes it the run's warm-up repeat;
* ``traced``  bare thunks under cProfile: the per-layer numbers.

Every mode reports the virtual-time metrics, the window deltas of the
counters the program publishes, and digests of the latency samples and of
the directories' end state, so run.py can require that all repeats of a
run simulated exactly the same thing.
"""

import time

_START = time.perf_counter()    # start of work: imports count towards setup_s

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import struct
import sys

from repro.kvstore import KVStore
from repro.net import RpcNode, alloc_packet
from repro.sim import Simulator
from repro.switchfab import ProgrammableSwitch
from repro.workloads import PopulationClient, UserTable

import check
import layers
from scenarios import FANIN_AGGREGATES, FANIN_USERS, WARMUP_SHARE, WORKLOADS

SERVER_COUNTERS = (
    "aggregations", "proactive_pushes", "sync_fallbacks", "changelog_appends",
)
CLIENT_COUNTERS = (
    "cache_hits", "cache_misses", "cache_invalidations", "wrong_epoch_retries",
)
SWITCH_COUNTERS = (
    "inserts", "queries", "removes", "insert_overflows",
    "cache_hits", "cache_misses", "cache_evictions",
)
OP_PERCENTILES = (
    ("all", 50), ("all", 99), ("create", 50), ("create", 99), ("stat", 50), ("statdir", 50),
    ("statdir", 99), ("readdir", 99), ("rename", 99),
)


REFERENCE_ITERATIONS = 200_000


def reference_loop() -> float:
    """Host seconds for a fixed piece of work that uses nothing of the program.

    This host's speed moves by ~20 % from one second to the next (both
    CPUs, user time and wall time alike), which no median over a few
    repeats removes.  Each repeat brackets its window with this loop, and
    run.py scales the window's host time by how fast the host was running
    it.  Heap, dict and generator traffic, like a DES inner loop.
    """
    def echo():
        value = 0
        while True:
            value = (yield value) + 1

    resume = echo()
    next(resume)
    heap: list = []
    slots: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        push(heap, (i * 7919 % 1009, i, None))
        slots[i & 1023] = resume.send(i)
        if i >= 1024:
            pop(heap)
    while heap:
        pop(heap)
    return time.perf_counter() - start


def counters(scenario) -> dict:
    """The monotone counters the program publishes, summed over the cluster."""
    cluster = scenario.cluster
    servers = cluster.servers
    clients = [cluster.client(i) for i in scenario.clients]
    switch = cluster.switch_stats()
    out = {f"switch.{name}": getattr(switch, name) for name in SWITCH_COUNTERS}
    for name in SERVER_COUNTERS:
        out[f"server.{name}"] = sum(s.counters.get(name) for s in servers)
    for name in CLIENT_COUNTERS:
        out[f"client.{name}"] = sum(fs.counters.get(name) for fs in clients)
    out["kv.point_ops"] = sum(s.kv.puts + s.kv.gets + s.kv.deletes for s in servers)
    out["kv.scans"] = sum(s.kv.scans for s in servers)
    out["wal.appends"] = sum(s.wal.appends for s in servers)
    out["net.retransmits"] = sum(
        host.node.retransmits for host in servers + clients
    )
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(scenario, result, before: dict, after: dict, ops: int) -> dict:
    """Per-layer metrics that need no profiler: counter deltas over the window."""
    delta = {name: after[name] - before[name] for name in after}
    cluster = scenario.cluster
    latency = result.latency
    populations = result.populations.values()
    metrics = {
        "net.retransmits_per_op": delta["net.retransmits"] / ops,
        "switchfab.stale_inserts_per_op": delta["switch.inserts"] / ops,
        "switchfab.stale_queries_per_op": delta["switch.queries"] / ops,
        "switchfab.stale_removes_per_op": delta["switch.removes"] / ops,
        "switchfab.insert_overflows_per_op": delta["switch.insert_overflows"] / ops,
        "switchfab.stale_occupancy_end": cluster.switch_stats().occupancy,
        "switchfab.cache_hit_ratio": ratio(
            delta["switch.cache_hits"],
            delta["switch.cache_hits"] + delta["switch.cache_misses"],
        ),
        "switchfab.cache_evictions_per_op": delta["switch.cache_evictions"] / ops,
        "kvstore.point_ops_per_op": delta["kv.point_ops"] / ops,
        "kvstore.scans_per_op": delta["kv.scans"] / ops,
        "kvstore.wal_appends_per_op": delta["wal.appends"] / ops,
        "core.server.aggregations_per_op": delta["server.aggregations"] / ops,
        "core.server.proactive_pushes_per_op": delta["server.proactive_pushes"] / ops,
        "core.server.sync_fallbacks_per_op": delta["server.sync_fallbacks"] / ops,
        "core.changelog.appends_per_op": delta["server.changelog_appends"] / ops,
        "core.changelog.pending_entries_end": cluster.total_pending_entries(),
        "core.client.cache_hit_ratio": ratio(
            delta["client.cache_hits"],
            delta["client.cache_hits"] + delta["client.cache_misses"],
        ),
        "core.client.retries_per_op": (
            delta["client.cache_invalidations"] + delta["client.wrong_epoch_retries"]
        ) / ops,
        # A closed loop offers exactly what completes, from one client.
        "workloads.achieved_over_offered": (
            result.throughput_ops / scenario.offered_ops if scenario.offered_ops else 1.0
        ),
        "workloads.peak_inflight": result.inflight,
        "workloads.active_users": (
            sum(p["active_users"] for p in populations) if populations else 1
        ),
    }
    for phase in ("queue", "cpu", "lock", "net"):
        metrics[f"core.server.{phase}_us_per_op"] = result.phase_mean_us(phase)
    # run_fanin keeps no per-op buckets; a single-op stream's ops are all that op.
    only_op = getattr(scenario.make_stream(0), "op", None)
    for op, q in OP_PERCENTILES:
        bucket = "all" if op == only_op else op
        # 0 marks an operation this workload never issues.
        metrics[f"core.client.{op}_p{q}_us"] = (
            latency.p(q, bucket) if latency.count(bucket) else 0.0
        )
    return metrics


def profile_metrics(profile: layers.Profile, ops: int, scans: int, traced_wall_s: float) -> dict:
    """Per-layer metrics read from the traced window's profile."""
    seconds, calls = profile.by_layer()
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_us_per_op"] = seconds[layer] * 1e6 / ops
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
    metrics["bench.pycalls_per_op"] = sum(calls.values()) / ops
    metrics["bench.traced_us_per_op"] = traced_wall_s * 1e6 / ops
    _, heap_ops = profile.entry_point(
        "<built-in method _heapq.heappush>", "<built-in method _heapq.heappop>"
    )
    metrics["sim.heap_ops_per_op"] = heap_ops / ops
    metrics["sim.spawns_per_op"] = profile.entry_point(Simulator.spawn)[1] / ops
    metrics["net.packets_per_op"] = profile.entry_point(alloc_packet)[1] / ops
    metrics["net.rpc_activations_per_op"] = profile.entry_point(
        RpcNode.call, RpcNode.notify, RpcNode.notify_many, RpcNode.multicast_call
    )[1] / ops
    pass_seconds, passes = profile.entry_point(ProgrammableSwitch.process)
    metrics["switchfab.passes_per_op"] = passes / ops
    metrics["switchfab.us_per_pass"] = ratio(pass_seconds * 1e6, passes)
    scan_seconds, _ = profile.entry_point(KVStore.scan_prefix)
    metrics["kvstore.scan_us_per_call"] = ratio(scan_seconds * 1e6, scans)
    return metrics


def setup_piece_metrics(scenario, ops: int, bootstrap_s: float) -> dict:
    """Direct timed calls for the set-up pieces (traced repeat only)."""
    t0 = time.perf_counter()
    for a in scenario.clients:
        take = scenario.make_stream(a).take
        for _ in range(ops // len(scenario.clients)):
            take()
    take_s = time.perf_counter() - t0
    build_s = 0.0
    if scenario.offered_ops:    # open loop
        # run_fanin builds its tables inside the call; time the same build here.
        t0 = time.perf_counter()
        for _ in range(FANIN_AGGREGATES):
            UserTable(FANIN_USERS // FANIN_AGGREGATES, 0.99)
        build_s = time.perf_counter() - t0
    return {
        "workloads.usertable_build_s": build_s,
        "workloads.bootstrap_s": bootstrap_s,
        "workloads.take_us_per_op": take_s * 1e6 / ops,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "checked", "traced"))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--drop-tally", action="store_true")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # MixStream derives rename targets from hash(str): unpinned, the
        # mixes differ from process to process.
        raise SystemExit("repeat.py must run with PYTHONHASHSEED=0 (run.py sets it)")

    workload = WORKLOADS[args.workload]
    ops = workload.ops // (10 if args.quick else 1)
    history = check.History() if args.mode == "checked" else None

    t0 = time.perf_counter()
    scenario = workload.build(args.seed, history.wrap if history else (lambda s: s))
    bootstrap_s = time.perf_counter() - t0
    scenario.drive(ops // WARMUP_SHARE, True)

    before = counters(scenario)
    profiler = cProfile.Profile() if args.mode == "traced" else None
    # The drivers collect once and keep the collector off during their
    # window.  Doing the same from here times that collection as set-up and
    # keeps the deferred one that follows gc.enable() out of the driver call.
    gc.collect()
    gc.disable()
    reference_s = [reference_loop()]
    call_start = time.perf_counter()
    if profiler:
        profiler.enable()
    result = scenario.drive(ops, False)
    if profiler:
        profiler.disable()
    call_s = time.perf_counter() - call_start
    reference_s.append(reference_loop())
    gc.enable()
    after = counters(scenario)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = result.latency.samples("all")
    report = {
        "workload": args.workload,
        "mode": args.mode,
        "ops": ops,
        "attempted": ops + ops // WARMUP_SHARE,
        "wall_s": result.wall_seconds,
        "reference_s": statistics.fmean(reference_s),
        # Everything before the window opened but the reference loop,
        # including what the driver call itself does first (run_fanin
        # builds the user tables there).
        "setup_s": (call_start - _START) - reference_s[0] + (call_s - result.wall_seconds),
        "peak_rss_mb": peak_rss_mb,
        "loadavg_1m": os.getloadavg()[0],
        "sim": {
            "sim_kops": result.throughput_kops,
            "sim_mean_us": statistics.fmean(samples),
            "sim_p98_us": result.latency.p(98),
        },
        "sim_digest": hashlib.sha256(struct.pack(f"<{len(samples)}d", *samples)).hexdigest(),
        "layer": counter_metrics(scenario, result, before, after, ops),
    }

    counts, problems = check.read_back(scenario.cluster, scenario.population)
    report["state_digest"] = check.state_digest(counts)
    if history:
        tally, unexplained = check.audit(history.records, scenario.population)
        if args.drop_tally:     # self-test: the check must notice a lost create
            tally[next(d for d, n in tally.items() if n > 0)] -= 1
        problems += check.compare_with_tally(counts, tally, scenario.population)
        problems += [f"unexplained reply: {u}" for u in unexplained[:5]]
        negative = sum(1 for r in history.records if r[4] != "ok")
        report["failed"] = len(unexplained)
        report["layer"]["workloads.negative_replies_per_op"] = (
            (negative - len(unexplained)) / report["attempted"]
        )
    report["problems"] = problems

    if profiler:
        profile = layers.Profile(
            profiler.getstats(),
            # run_fanin's O(users) work on either side of its window.
            outside_window=[UserTable.__init__, PopulationClient.summary],
        )
        traced = profile_metrics(
            profile, ops, after["kv.scans"] - before["kv.scans"], result.wall_seconds
        )
        report["layer"].update(traced)
        accounted = sum(traced[f"{layer}.self_us_per_op"] for layer in layers.LAYERS)
        if abs(accounted / traced["bench.traced_us_per_op"] - 1.0) > 0.02:
            problems.append(
                f"layer self times add up to {accounted:.2f} us/op, the traced "
                f"window took {traced['bench.traced_us_per_op']:.2f} us/op"
            )
        report["layer"].update(
            setup_piece_metrics(scenario, ops, bootstrap_s)
        )
    json.dump(report, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
