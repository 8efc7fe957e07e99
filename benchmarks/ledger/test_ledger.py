"""Self-test of the ledger.  Not part of tier-1 (``testpaths`` is ``tests``):

    python3 -m pytest benchmarks/ledger

Runs the benchmark at ``--quick`` scale (a tenth of the operations, two
timed repeats), about a minute in all.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NOTES = json.loads((LEDGER / "metrics.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def ledger(*args, script=LEDGER / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        capture_output=True, text=True, timeout=600,
    )


def quick_run(out: Path, *args) -> dict:
    done = ledger("--quick", "--out", out, *args)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    results = json.loads(out.read_text())
    results["stdout"] = done.stdout
    return results


@pytest.fixture(scope="module")
def tmp(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("ledger")


@pytest.fixture(scope="module")
def quick(tmp) -> dict:
    return quick_run(tmp / "quick.json")


def exact(entry: dict) -> dict:
    """The metrics of one workload that must repeat bit for bit."""
    out = {m: entry["end_to_end"][m]["value"] for m in ("sim_kops", "sim_mean_us", "sim_p98_us")}
    for name, row in entry["per_layer"].items():
        if NOTES[name]["clock"] != "host":
            out[name] = row["value"]
    out["sim_digest"] = entry["sim_digest"]
    return out


def test_declared_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
    assert set(NOTES) == {m["name"] for m in SPEC["per_layer"]}
    assert {note["clock"] for note in NOTES.values()} == {"host", "virtual", "count"}


def test_quick_run_emits_every_declared_metric_and_nothing_else(quick):
    assert quick["scale"] == "quick"
    assert quick["PYTHONHASHSEED"] == "0"
    assert list(quick["workloads"]) == WORKLOADS
    for name, entry in quick["workloads"].items():
        for table in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[table]}
            assert set(entry[table]) == set(declared), name
            for metric, row in entry[table].items():
                assert row["unit"] == declared[metric]
                assert re.search(rf"^{name}\s+{re.escape(metric)}\s", quick["stdout"], re.M)
        assert entry["problems"] == [] and entry["failed"] == 0
        assert all(row["value"] > 0 for row in entry["end_to_end"].values())


def test_layer_self_times_sum_to_the_traced_window(quick):
    for name, entry in quick["workloads"].items():
        layers = entry["per_layer"]
        total = sum(
            row["value"] for metric, row in layers.items()
            if metric.endswith(".self_us_per_op")
        )
        assert total == pytest.approx(layers["bench.traced_us_per_op"]["value"], rel=0.02), name


def test_layer_table_discriminates_between_workloads(quick):
    layer = {name: entry["per_layer"] for name, entry in quick["workloads"].items()}

    def value(workload, metric):
        return layer[workload][metric]["value"]

    assert value("burst_dirread", "kvstore.self_us_per_op") >= 2 * value("hot_create", "kvstore.self_us_per_op")
    assert value("fanin_1m_stat", "workloads.self_us_per_op") >= 2 * value("hot_create", "workloads.self_us_per_op")
    assert value("fanin_1m_stat", "core.changelog.calls_per_op") < 0.01
    assert value("fanin_1m_stat", "core.changelog.appends_per_op") == 0
    assert value("fanin_1m_stat", "kvstore.wal_appends_per_op") == 0
    assert 0 < value("fanin_1m_stat", "switchfab.cache_hit_ratio") < 1
    assert value("fanin_1m_stat", "workloads.usertable_build_s") > 0
    assert value("burst_dirread", "core.server.aggregations_per_op") > value("hot_create", "core.server.aggregations_per_op")


def test_same_seed_repeats_exactly_and_another_seed_does_not(quick, tmp):
    again = quick_run(tmp / "again.json", "--workload", "dcs_mix")
    other = quick_run(tmp / "other.json", "--workload", "dcs_mix", "--seed", 18)
    first = exact(quick["workloads"]["dcs_mix"])
    assert exact(again["workloads"]["dcs_mix"]) == first
    assert exact(other["workloads"]["dcs_mix"]) != first
    assert other["workloads"]["dcs_mix"]["sim_digest"] != first["sim_digest"]


def test_losing_a_tallied_create_fails_the_run():
    done = ledger("--quick", "--workload", "hot_create", "--trace", 0, "--drop-tally")
    assert done.returncode != 0
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
    assert "completed updates say" in done.stdout


def test_missing_program_fails_without_a_result(tmp):
    """In a checkout that holds only the benchmark, no name it needs exists."""
    bare = tmp / "bare"
    shutil.copytree(LEDGER, bare / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = ledger("--workload", "hot_create", "--seed", 1, "--seconds", 1, "--trace", 0,
                  script=bare / "benchmarks" / "ledger" / "run.py")
    assert done.returncode != 0
    assert "ModuleNotFoundError" in done.stderr
    assert '"correct"' not in done.stdout


def test_missing_entry_point_raises_instead_of_skipping():
    sys.path[:0] = [str(ROOT / "src"), str(LEDGER)]
    try:
        import layers
    finally:
        del sys.path[:2]
    with pytest.raises(AttributeError):
        layers.Profile([]).entry_point(object())


def test_agree_rows_and_refusals(quick, tmp):
    a = tmp / "quick.json"
    done = ledger("--agree", a, a)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " worse" not in done.stdout
    assert done.stdout.count("identical") == len(WORKLOADS)

    slower = json.loads(a.read_text())
    row = slower["workloads"]["dcs_mix"]["end_to_end"]["host_ops_per_s"]
    for key in ("value", "q1", "q3"):
        row[key] /= 2
    b = tmp / "slower.json"
    b.write_text(json.dumps(slower))
    done = ledger("--agree", a, b)
    assert done.returncode == 1
    assert re.search(r"dcs_mix\s+host_ops_per_s.*worse", done.stdout)

    done = ledger("--agree", a, LEDGER / "results" / "baseline_a.json")
    assert done.returncode != 0
    assert "refusing to compare" in done.stderr


def test_recorded_baselines_agree():
    done = ledger("--agree", LEDGER / "results" / "baseline_a.json",
                  LEDGER / "results" / "baseline_b.json")
    assert done.returncode == 0, done.stdout + done.stderr
    assert " worse" not in done.stdout and "unresolved" not in done.stdout
    assert done.stdout.count("identical") == len(WORKLOADS)
