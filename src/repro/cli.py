"""Command-line interface: run experiments without writing code.

Examples
--------
::

    python -m repro info
    python -m repro throughput --system SwitchFS --op create --dirs 1 \\
        --servers 8 --ops 4000
    python -m repro compare --op create --dirs 1 --ops 2000
    python -m repro workload --mix dcs --system SwitchFS --ops 3000
    python -m repro faults --loss 0.1 --dup 0.05 --ops 200

All numbers but ``throughput``'s ``wall time`` row are virtual-time
measurements from the deterministic simulation; repeated invocations with
the same arguments reproduce the same results bit-for-bit.  ``compare``
fans its per-system runs across a process pool when the host has more
than one core, which does not change the reported numbers — each run is
an independent seeded simulation.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import SYSTEMS, make_cluster, print_table, run_stream, scaled_config
from .bench.sweep import sweep
from .core import FSConfig, SwitchFSCluster
from .net import FaultModel
from .sim import make_rng
from .workloads import (
    CNN_TRAINING_MIX,
    DATA_CENTER_SERVICES_MIX,
    FixedOpStream,
    MixStream,
    THUMBNAIL_MIX,
    bootstrap,
    multiple_directories,
    run_fanin,
    single_large_directory,
)
from .workloads.generator import DATA_LATENCY_US

__all__ = ["main"]

MIXES = {
    "dcs": DATA_CENTER_SERVICES_MIX,
    "cnn": CNN_TRAINING_MIX,
    "thumbnail": THUMBNAIL_MIX,
}

OPS = ["create", "delete", "mkdir", "rmdir", "stat", "open", "close", "statdir", "readdir"]


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", default="SwitchFS", choices=sorted(SYSTEMS),
                        help="which filesystem to run (default: SwitchFS)")
    parser.add_argument("--servers", type=int, default=8,
                        help="metadata servers (default: 8)")
    parser.add_argument("--cores", type=int, default=4,
                        help="cores per server (default: 4)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--switch-cache", action="store_true",
                        help="provision the in-switch dentry cache "
                             "(applies to SwitchFS; baselines have no switch)")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ops", type=int, default=3000,
                        help="operations to run (default: 3000)")
    parser.add_argument("--inflight", type=int, default=64,
                        help="concurrent requests (default: 64)")
    parser.add_argument("--dirs", type=int, default=64,
                        help="directories in the namespace (1 = hotspot)")
    parser.add_argument("--files", type=int, default=None,
                        help="pre-populated files per directory "
                             "(default: sized to --ops)")


def _population(args):
    files = args.files if args.files is not None else max(8, args.ops // max(1, args.dirs) + 8)
    if args.dirs == 1:
        return single_large_directory(files)
    return multiple_directories(args.dirs, files)


def _build(args, system: Optional[str] = None):
    # The dentry cache lives in the programmable switch, which only the
    # SwitchFS datapath has; the knob is a no-op for baseline systems.
    cache = getattr(args, "switch_cache", False) and (system or args.system) == "SwitchFS"
    config = scaled_config(num_servers=args.servers, cores_per_server=args.cores,
                           switch_cache=cache)
    cluster = make_cluster(system or args.system, config)
    population = bootstrap(cluster, _population(args), warm_clients=[0])
    return cluster, population


def cmd_info(args) -> int:
    rows = [[name] for name in sorted(SYSTEMS)]
    print_table("available systems", ["system"], rows)
    print_table(
        "workload mixes (--mix)",
        ["name", "description"],
        [
            ["dcs", "PanguFS data-center-services mix (Table 5), 80/20 skew"],
            ["cnn", "CNN-training lifecycle mix"],
            ["thumbnail", "thumbnail-generation mix"],
        ],
    )
    cfg = FSConfig()
    print_table(
        "FSConfig defaults",
        ["knob", "value"],
        [
            ["num_servers", cfg.num_servers],
            ["cores_per_server", cfg.cores_per_server],
            ["async_updates / recast", f"{cfg.async_updates} / {cfg.recast}"],
            ["stale set", f"{cfg.stale_stages} stages x 2^{cfg.stale_index_bits}"],
            ["proactive push threshold", cfg.proactive_push_entries],
        ],
    )
    return 0


def cmd_throughput(args) -> int:
    """One op's throughput: closed loop, or open loop with ``--users``
    (DESIGN.md §16)."""
    if args.users and args.offered_load <= 0:
        print("error: --users needs --offered-load > 0 (total ops per "
              "simulated second)", file=sys.stderr)
        return 2
    cluster, population = _build(args)

    stream = FixedOpStream(
        args.op, population, seed=args.seed,
        dir_choice="single" if args.dirs == 1 else "uniform",
    )
    if args.users:
        # Every aggregate draws from the one stream: a stream per aggregate
        # would mint the same create names (new0, new1, ...) in each.
        result = run_fanin(
            cluster,
            lambda _a: stream,
            users=args.users,
            offered_load_ops=args.offered_load,
            total_ops=args.ops,
            aggregates=min(args.users, args.aggregates),
            seed=args.seed,
        )
        title = f"{args.system}: open-loop {args.op}, {args.users:,} users"
        rows = [
            ["offered load", f"{args.offered_load:,.0f} ops/s"],
            ["achieved load", f"{result.throughput_ops:,.0f} ops/s"],
            ["peak in-flight", result.inflight],
        ]
    else:
        result = run_stream(cluster, stream, total_ops=args.ops,
                            inflight=args.inflight)
        title = f"{args.system}: {args.op} x {args.ops} over {args.dirs} dir(s)"
        rows = [["throughput", f"{result.throughput_kops:,.1f} Kops/s"]]
    rows += [
        ["avg latency", f"{result.mean_latency_us:,.1f} us"],
        ["p99 latency", f"{result.p99_latency_us():,.1f} us"],
        ["simulated time", f"{result.sim_elapsed_us/1000:,.2f} ms"],
        ["wall time", f"{result.wall_seconds:,.2f} s"],
    ]
    cache = result.switch_cache
    if cache:
        rows.append([
            "switch cache",
            f"{result.switch_cache_hit_rate:.1%} hit ({cache.get('hits', 0)} hit / "
            f"{cache.get('misses', 0)} miss / {cache.get('evictions', 0)} evict)",
        ])
    print_table(title, ["metric", "value"], rows)
    if result.populations:
        print_table(
            "populations",
            ["pop", "users", "load ops/s", "ops", "avg us", "p99 us",
             "active", "top share", "epoch catchups"],
            [
                [name, f"{p['users']:,}", f"{p['offered_load_ops']:,.0f}",
                 p["ops_completed"], f"{p.get('mean_latency_us', 0.0):,.1f}",
                 f"{p.get('p99_latency_us', 0.0):,.1f}", p["active_users"],
                 f"{p['top_user_share']:.1%}", p["epoch_catchups"]]
                for name, p in result.populations.items()
            ],
        )
    return 0


def _compare_point(point: dict) -> List:
    """Picklable sweep worker: one system's run for ``repro compare``."""
    args = argparse.Namespace(**point["args"])
    system = point["system"]
    cluster, population = _build(args, system=system)
    stream = FixedOpStream(
        args.op, population, seed=args.seed,
        dir_choice="single" if args.dirs == 1 else "uniform",
    )
    total = args.ops if system != "Ceph" else max(200, args.ops // 4)
    result = run_stream(cluster, stream, total_ops=total, inflight=args.inflight)
    hit_rate = (
        f"{result.switch_cache_hit_rate:.1%}" if result.switch_cache else "-"
    )
    return [system, round(result.throughput_kops, 1),
            round(result.mean_latency_us, 1), hit_rate]


def cmd_compare(args) -> int:
    systems = [s.strip() for s in args.systems.split(",")]
    arg_dict = {k: v for k, v in vars(args).items() if k != "fn"}
    points = [{"system": system, "args": arg_dict} for system in systems]
    rows = sweep(_compare_point, points)
    print_table(
        f"compare: {args.op} over {args.dirs} dir(s), "
        f"{args.servers} servers x {args.cores} cores",
        ["system", "Kops/s", "avg us", "sw-cache hit"], rows,
    )
    return 0


def cmd_lint(args) -> int:
    """Run ``reprolint`` — every static rule — over paths."""
    from pathlib import Path

    from .analysis import RULES, format_finding, lint_paths

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"reprolint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    report = lint_paths(args.paths)
    for f in report.findings:
        print(format_finding(f))
    scope = f"{len(report.files)} file(s)"
    if report.findings:
        print(f"reprolint: {len(report.findings)} finding(s) in {scope}")
        return 1
    print(f"reprolint: clean ({scope}; rules {' '.join(RULES)})")
    return 0


def cmd_workload(args) -> int:
    cluster, population = _build(args)
    stream = MixStream(MIXES[args.mix], population, seed=args.seed,
                       data_latency_us=0.0 if args.no_data else DATA_LATENCY_US)
    result = run_stream(cluster, stream, total_ops=args.ops, inflight=args.inflight)
    print_table(
        f"{args.system} on mix {args.mix!r}",
        ["metric", "value"],
        [
            ["end-to-end throughput", f"{result.throughput_kops:,.1f} Kops/s"],
            ["avg latency", f"{result.mean_latency_us:,.1f} us"],
            ["p99 latency", f"{result.p99_latency_us():,.1f} us"],
        ],
    )
    return 0


def cmd_faults(args) -> int:
    faults = FaultModel(
        make_rng(args.seed, "cli-faults"),
        loss_prob=args.loss, dup_prob=args.dup,
        reorder_prob=args.reorder, reorder_jitter_us=3.0,
    )
    config = scaled_config(num_servers=args.servers, cores_per_server=args.cores)
    cluster = SwitchFSCluster(config, faults=faults)
    fs = cluster.client(0)
    cluster.run_op(fs.mkdir("/drill"))
    for i in range(args.ops):
        cluster.run_op(fs.create(f"/drill/f{i}"))
    listing = cluster.run_op(fs.readdir("/drill"))
    ok = len(listing["entries"]) == args.ops
    print_table(
        f"fault drill: {args.ops} creates under loss={args.loss} "
        f"dup={args.dup} reorder={args.reorder}",
        ["metric", "value"],
        [
            ["entries visible", f"{len(listing['entries'])} / {args.ops}"],
            ["correct", "yes" if ok else "NO"],
            ["client retransmits", fs.node.retransmits],
            ["packets dropped", cluster.net.packets_dropped],
            ["packets sent", cluster.net.packets_sent],
        ],
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SwitchFS/AsyncFS reproduction — simulated experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="list systems, mixes, and defaults")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("throughput", help="throughput of one op, closed or open loop")
    _add_cluster_args(p)
    _add_workload_args(p)
    p.add_argument("--op", default="create", choices=OPS)
    p.add_argument("--users", type=int, default=0,
                   help="logical users for an open-loop fan-in run "
                        "(0 = closed loop; DESIGN.md §16)")
    p.add_argument("--offered-load", type=float, default=0.0,
                   help="total offered load in ops per simulated second "
                        "(required with --users)")
    p.add_argument("--aggregates", type=int, default=2,
                   help="aggregate processes carrying the population "
                        "(default: 2)")
    p.set_defaults(fn=cmd_throughput)

    p = sub.add_parser("compare", help="run one op across several systems")
    _add_cluster_args(p)
    _add_workload_args(p)
    p.add_argument("--op", default="create", choices=OPS)
    p.add_argument("--systems", default="SwitchFS,InfiniFS,CFS-KV",
                   help="comma-separated system list")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("workload", help="run a Table-5 workload mix")
    _add_cluster_args(p)
    _add_workload_args(p)
    p.add_argument("--mix", default="dcs", choices=sorted(MIXES))
    p.add_argument("--no-data", action="store_true",
                   help="skip modelled datanode reads/writes")
    p.set_defaults(fn=cmd_workload)

    p = sub.add_parser("lint", help="the static gate: every reprolint rule")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files/directories to lint (default: src)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("faults", help="correctness drill on a lossy network")
    _add_cluster_args(p)
    p.add_argument("--ops", type=int, default=100)
    p.add_argument("--loss", type=float, default=0.1)
    p.add_argument("--dup", type=float, default=0.05)
    p.add_argument("--reorder", type=float, default=0.1)
    p.set_defaults(fn=cmd_faults)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
