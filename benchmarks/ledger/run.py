"""The ledger: one benchmark for both clocks.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py [--seed N] [--quick] [--out FILE]
    python3 benchmarks/ledger/run.py --agree A.json B.json

The first form is the contract in BENCHMARK.json: one workload, the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace
1``), one JSON object as the last line of output.  The second runs all
four workloads, their repeats interleaved, and prints both tables.  The
third compares two result sets written with ``--out`` against the bounds
in BENCHMARK.json.  README.md has the protocol and how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_NOTES = json.loads((LEDGER / "metrics.json").read_text())

# What repeat.py's reference loop takes on the host the baseline was
# recorded on.  A repeat that ran it slower than this ran its window on a
# slower host by the same factor, and host_ops_per_s is scaled back up.
REFERENCE_S = 0.15
MIN_TIMED_REPEATS = 3
QUICK_TIMED_REPEATS = 2
REPEAT_TIMEOUT_S = 150


class LedgerError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def spawn_repeat(workload: str, seed: int, mode: str, quick: bool, drop_tally: bool) -> dict:
    """Run one repeat in a fresh interpreter and return its report."""
    command = [
        sys.executable, str(LEDGER / "repeat.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if quick:
        command.append("--quick")
    if drop_tally and mode == "checked":
        command.append("--drop-tally")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    done = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=REPEAT_TIMEOUT_S
    )
    if done.returncode != 0:
        raise LedgerError(
            f"{mode} repeat of {workload} exited with {done.returncode}:\n{done.stderr}"
        )
    report = json.loads(done.stdout.splitlines()[-1])
    report["elapsed_s"] = time.perf_counter() - started
    return report


class WorkloadRun:
    """The repeats of one workload and what they have to agree on."""

    def __init__(self, name: str, seed: int, quick: bool, drop_tally: bool):
        self._spawn = lambda mode: spawn_repeat(name, seed, mode, quick, drop_tally)
        # The checked repeat goes first: it is the run's discarded warm-up
        # (the first run after idle measured ~18 % slow) and the reference
        # every later repeat must reproduce bit for bit.
        self.checked = self._spawn("checked")
        self.problems: List[str] = list(self.checked["problems"])
        self.timed: List[dict] = []
        self.traced: List[dict] = []

    def repeat(self, mode: str) -> None:
        report = self._spawn(mode)
        self.problems += report["problems"]
        reference = self.checked
        for key in ("sim", "sim_digest", "state_digest"):
            if report[key] != reference[key]:
                self.problems.append(
                    f"{mode} repeat disagrees with the checked repeat on {key}: "
                    f"{report[key]} != {reference[key]}"
                )
        for name, value in reference["layer"].items():
            if name in report["layer"] and report["layer"][name] != value:
                self.problems.append(
                    f"{mode} repeat disagrees with the checked repeat on {name}: "
                    f"{report['layer'][name]} != {value}"
                )
        (self.timed if mode == "timed" else self.traced).append(report)

    def spent(self, reports: List[dict]) -> float:
        return sum(r["elapsed_s"] for r in reports)

    def wants(self, reports: List[dict], minimum: int, budget_s: float) -> bool:
        """Another repeat, if the minimum is not met or one more fits the budget."""
        if len(reports) < minimum:
            return True
        typical = statistics.median(r["elapsed_s"] for r in reports)
        return self.spent(reports) + typical <= budget_s

    # -- results ---------------------------------------------------------
    def end_to_end(self) -> Dict[str, List[float]]:
        """Every end-to-end metric's values, one per timed repeat."""
        values = {
            "host_ops_per_s": [
                r["ops"] / r["wall_s"] * r["reference_s"] / REFERENCE_S for r in self.timed
            ],
            "setup_s": [r["setup_s"] for r in self.timed],
            "peak_rss_mb": [r["peak_rss_mb"] for r in self.timed],
        }
        for name, value in self.checked["sim"].items():
            values[name] = [value] * len(self.timed)
        return values

    def per_layer(self) -> Dict[str, List[float]]:
        """Every per-layer metric's values, one per traced repeat."""
        values = {
            name: [r["layer"][name] for r in self.traced]
            for name in self.traced[0]["layer"]
        }
        for name, series in values.items():
            if LAYER_NOTES[name]["clock"] != "host" and len(set(series)) > 1:
                self.problems.append(f"traced repeats disagree on {name}: {series}")
        negative = "workloads.negative_replies_per_op"
        values[negative] = [self.checked["layer"][negative]] * len(self.traced)
        untraced = statistics.median(r["wall_s"] for r in self.timed)
        values["bench.trace_overhead_ratio"] = [
            r["wall_s"] / untraced for r in self.traced
        ]
        return values


def measure(
    names: List[str], seed: int, seconds: float, quick: bool,
    want_e2e: bool, want_layers: bool, drop_tally: bool = False,
) -> Dict[str, WorkloadRun]:
    """Run the protocol: checked repeat, timed repeats interleaved, traced repeats."""
    runs = {name: WorkloadRun(name, seed, quick, drop_tally) for name in names}
    if quick:
        timed_min, timed_budget = QUICK_TIMED_REPEATS, 0.0
    elif want_e2e:
        timed_min, timed_budget = MIN_TIMED_REPEATS, seconds
    else:   # only as the untraced side of the tracing overhead
        timed_min, timed_budget = 1, 0.0
    # Round-robin over the workloads, so that host drift spreads evenly.
    while True:
        waiting = [r for r in runs.values() if r.wants(r.timed, timed_min, timed_budget)]
        if not waiting:
            break
        for run in waiting:
            run.repeat("timed")
    if want_layers:
        for run in runs.values():
            # With --trace 1 alone the traced repeats fill the run's
            # seconds; beside the end-to-end repeats, one is enough.
            budget = 0.0 if (quick or want_e2e) else seconds - run.spent(run.timed)
            while run.wants(run.traced, 1, budget):
                run.repeat("traced")
    return runs


def summarise(values: List[float]) -> dict:
    """Median, quartiles and count of one metric's repeats."""
    out = {"value": statistics.median(values), "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def result_set(runs: Dict[str, WorkloadRun], seed: int, quick: bool,
               want_e2e: bool, want_layers: bool) -> dict:
    """Everything one invocation measured, as written to --out."""
    workloads = {}
    for name, run in runs.items():
        tables = {}
        if want_e2e:
            tables["end_to_end"] = run.end_to_end()
        if want_layers:
            tables["per_layer"] = run.per_layer()
        entry = {}
        for table, rows in tables.items():
            units = {m["name"]: m["unit"] for m in SPEC[table]}
            if set(rows) != set(units):
                # Every declared name and nothing else, or no result at all.
                raise LedgerError(
                    f"{table} of {name}: measured but not declared in BENCHMARK.json "
                    f"{sorted(set(rows) - set(units))}, declared but not measured "
                    f"{sorted(set(units) - set(rows))}"
                )
            entry[table] = {
                metric: dict(summarise(values), unit=units[metric])
                for metric, values in rows.items()
            }
        entry.update(
            ops=run.checked["ops"],
            attempted=run.checked["attempted"],
            failed=run.checked["failed"],
            problems=run.problems,
            sim_digest=run.checked["sim_digest"],
            state_digest=run.checked["state_digest"],
            loadavg_1m=[r["loadavg_1m"] for r in run.timed + run.traced],
            raw_ops_per_s=[r["ops"] / r["wall_s"] for r in run.timed],
            reference_s=[r["reference_s"] for r in run.timed],
        )
        workloads[name] = entry
    return {
        "scale": "quick" if quick else "full",
        "seed": seed,
        "python": platform.python_version(),
        "host_cpus": os.cpu_count(),
        "PYTHONHASHSEED": "0",
        "workloads": workloads,
    }


def print_tables(results: dict) -> None:
    for name, entry in results["workloads"].items():
        for table in ("end_to_end", "per_layer"):
            for metric, row in entry.get(table, {}).items():
                spread = (
                    f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}" if "q1" in row else ""
                )
                print(
                    f"{name:14s} {metric:40s} {row['value']:>14.6g} "
                    f"{row['unit']:12s} n={row['n']}{spread}"
                )
        for problem in entry["problems"]:
            print(f"{name:14s} CHECK FAILED: {problem}")


# -- comparing two result sets ----------------------------------------------
def agree(path_a: str, path_b: str) -> int:
    """Row per (workload, end-to-end metric): ok, worse, or unresolved.

    B is worse when its median is worse than A's by more than the
    metric's bound; a row is unresolved when either side's quartile
    spread is wider than the bound, so the medians settle nothing.
    """
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["scale"] != b["scale"]:
        raise LedgerError(f"refusing to compare a {a['scale']} run with a {b['scale']} run")
    worse = 0
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in SPEC["end_to_end"]:
            ra, rb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            loss = (rb["value"] - ra["value"]) / ra["value"]
            if metric["better"] == "higher":
                loss = -loss
            spread = max((r["q3"] - r["q1"]) / r["value"] for r in (ra, rb))
            if loss > metric["bound"]:
                verdict = "worse"
                worse += 1
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{name:14s} {metric['name']:16s} {ra['value']:>12.6g} -> "
                f"{rb['value']:>12.6g} {metric['unit']:12s} {-loss:+8.2%} "
                f"(bound {metric['bound']:.0%}, spread {spread:.2%})  {verdict}"
            )
        differing = [
            m for m, row in wa.get("per_layer", {}).items()
            if LAYER_NOTES[m]["clock"] != "host"
            and row["value"] != wb["per_layer"][m]["value"]
        ]
        if wa["sim_digest"] != wb["sim_digest"]:
            differing.insert(0, "sim_digest")
        print(
            f"{name:14s} virtual-time and count layer metrics: "
            + (f"differ in {differing}" if differing else "identical")
        )
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", choices=names, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="host seconds of repeats per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the operations, two repeats; for the self-test")
    parser.add_argument("--out", help="write the result set to this file")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"),
                        help="compare two --out files against the bounds")
    parser.add_argument("--drop-tally", action="store_true",
                        help="self-test: lose one tallied create, so the output check must fail")
    args = parser.parse_args(argv)
    if args.agree:
        return agree(*args.agree)

    want_e2e = args.trace != 1
    want_layers = args.trace != 0
    chosen = [args.workload] if args.workload else names
    runs = measure(
        chosen, args.seed, args.seconds, args.quick, want_e2e, want_layers, args.drop_tally
    )
    results = result_set(runs, args.seed, args.quick, want_e2e, want_layers)
    print(f"scale: {results['scale']}  seed: {results['seed']}  python {results['python']}  "
          f"host_cpus {results['host_cpus']}  PYTHONHASHSEED=0")
    print_tables(results)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")

    entries = results["workloads"].values()
    correct = not any(e["problems"] for e in entries)
    summary = {
        "correct": correct,
        "attempted": sum(e["attempted"] for e in entries),
        "failed": sum(e["failed"] for e in entries),
    }
    if args.workload and args.trace is not None:
        table = results["workloads"][args.workload]["end_to_end" if want_e2e else "per_layer"]
        summary["metrics"] = {
            m: {"value": row["value"], "unit": row["unit"]} for m, row in table.items()
        }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
