"""Shared helpers for the per-figure benchmark files.

Every benchmark runs the workload on *virtual* time inside a single
``benchmark.pedantic`` round (re-running a multi-second simulation many
times buys no precision — the simulation is deterministic).  The
paper-style tables are printed and also written to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can cite them.

Scales are shrunk from the paper's testbed (10 M files, 16 dual-socket
servers) to laptop-simulation sizes; the *relative* shapes are the
reproduction target, as recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence

from repro.bench import (
    RunResult,
    make_cluster,
    run_stream,
    scaled_config,
)
from repro.bench.sweep import sweep
from repro.workloads import (
    FixedOpStream,
    Population,
    bootstrap,
    multiple_directories,
    single_large_directory,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_table(name: str, text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text + "\n")
    print("\n" + text)


def measure_fixed_op(
    system: str,
    op: str,
    population_factory: Callable[[], Population],
    num_servers: int = 8,
    cores: int = 4,
    total_ops: int = 2500,
    inflight: int = 64,
    dir_choice: str = "uniform",
    seed: int = 17,
    config_overrides: Optional[dict] = None,
) -> RunResult:
    """One benchmark point: a fixed-op stream against a fresh cluster."""
    config = scaled_config(num_servers=num_servers, cores_per_server=cores,
                           **(config_overrides or {}))
    cluster = make_cluster(system, config)
    population = bootstrap(cluster, population_factory(), warm_clients=[0])
    stream = FixedOpStream(op, population, seed=seed, dir_choice=dir_choice)
    return run_stream(cluster, stream, total_ops=total_ops, inflight=inflight)


def resolve_population(spec: Sequence) -> Population:
    """Build a population from a picklable spec tuple.

    Sweep points cross process boundaries, so they carry ``("single",
    files)`` or ``("multi", dirs, files)`` instead of a factory closure.
    """
    kind = spec[0]
    if kind == "single":
        return single_large_directory(*spec[1:])
    if kind == "multi":
        return multiple_directories(*spec[1:])
    raise ValueError(f"unknown population spec {spec!r}")


def measure_point(point: dict) -> RunResult:
    """Picklable sweep worker: one benchmark point described by a dict.

    The dict holds ``measure_fixed_op`` keywords, with ``population`` as a
    spec tuple for :func:`resolve_population`.  Each point carries its own
    seed, so points are independent and order-insensitive.
    """
    kwargs = dict(point)
    spec = kwargs.pop("population")
    return measure_fixed_op(
        kwargs.pop("system"), kwargs.pop("op"),
        population_factory=lambda: resolve_population(spec), **kwargs,
    )


def run_points(points: Sequence[dict]) -> List[RunResult]:
    """Fan independent benchmark points across cores; results in input order."""
    return sweep(measure_point, points)


def one_shot(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark and return its result."""
    holder = {}

    def call():
        holder["result"] = fn()

    benchmark.pedantic(call, rounds=1, iterations=1)
    return holder["result"]
