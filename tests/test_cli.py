"""CLI smoke tests (fast configurations)."""

import os
import subprocess
import sys

import pytest

from repro.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestInfo:
    def test_lists_systems_and_defaults(self, capsys):
        code, out = run_cli(capsys, ["info"])
        assert code == 0
        for name in ("SwitchFS", "InfiniFS", "CFS-KV", "IndexFS", "Ceph"):
            assert name in out
        assert "dcs" in out
        assert "proactive push threshold" in out


class TestThroughput:
    def test_create_hotspot(self, capsys):
        code, out = run_cli(capsys, [
            "throughput", "--op", "create", "--dirs", "1",
            "--servers", "2", "--cores", "2", "--ops", "200", "--inflight", "8",
        ])
        assert code == 0
        assert "Kops/s" in out
        assert "p99 latency" in out

    def test_statdir_multi_dir(self, capsys):
        code, out = run_cli(capsys, [
            "throughput", "--op", "statdir", "--dirs", "8",
            "--servers", "2", "--cores", "2", "--ops", "100", "--inflight", "4",
        ])
        assert code == 0

    def test_open_loop_prints_populations(self, capsys):
        code, out = run_cli(capsys, [
            "throughput", "--op", "stat", "--users", "1000",
            "--offered-load", "200000", "--ops", "400",
        ])
        assert code == 0
        assert "open-loop stat, 1,000 users" in out
        assert "== populations ==" in out
        assert "pop0" in out and "pop1" in out

    def test_open_loop_create_mints_each_name_once(self):
        """The aggregates share one stream: with a stream each, every one
        minted new0, new1, ... and the colliding creates hung the run.  A
        child process with a timeout turns a hang into a failure."""
        done = subprocess.run(
            [sys.executable, "-m", "repro", "throughput", "--op", "create",
             "--users", "1000", "--offered-load", "100000", "--ops", "300"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "open-loop create, 1,000 users" in done.stdout
        ops = {row[0]: row[3] for row in map(str.split, done.stdout.splitlines())
               if row and row[0] in ("pop0", "pop1")}
        assert ops == {"pop0": "150", "pop1": "150"}

    def test_users_need_offered_load(self, capsys):
        assert main(["throughput", "--users", "10"]) == 2


class TestCompare:
    def test_two_systems(self, capsys):
        code, out = run_cli(capsys, [
            "compare", "--op", "create", "--dirs", "1",
            "--systems", "SwitchFS,InfiniFS",
            "--servers", "2", "--cores", "2", "--ops", "300", "--inflight", "8",
        ])
        assert code == 0
        assert "SwitchFS" in out and "InfiniFS" in out


class TestWorkload:
    def test_dcs_mix(self, capsys):
        code, out = run_cli(capsys, [
            "workload", "--mix", "dcs", "--no-data",
            "--servers", "2", "--cores", "2", "--ops", "200",
            "--inflight", "8", "--dirs", "8",
        ])
        assert code == 0
        assert "end-to-end throughput" in out


class TestFaults:
    def test_drill_correct_under_faults(self, capsys):
        code, out = run_cli(capsys, [
            "faults", "--ops", "30", "--loss", "0.1", "--dup", "0.05",
            "--servers", "2", "--cores", "2",
        ])
        assert code == 0
        assert "correct" in out and "yes" in out


class TestLint:
    def test_clean_file_exits_zero(self, capsys, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("def add(a, b):\n    return a + b\n", encoding="utf-8")
        code, out = run_cli(capsys, ["lint", str(target)])
        assert code == 0
        assert "reprolint: clean (1 file(s); rules RL001 " in out
        assert out.rstrip().endswith("RL007)")

    def test_findings_exit_nonzero_and_print_locations(self, capsys, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(
            "import time\n\ndef wall():\n    return time.monotonic()\n",
            encoding="utf-8",
        )
        code, out = run_cli(capsys, ["lint", str(target)])
        assert code == 1
        assert "RL001[wall-clock]" in out
        assert "dirty.py:4" in out
        assert "1 finding(s)" in out

    def test_src_tree_is_clean(self, capsys):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        code, out = run_cli(capsys, ["lint", str(src)])
        assert code == 0, out
        assert "clean" in out

    def test_seeded_finding_in_a_directory_exits_nonzero(self, capsys, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "peek.py").write_text(
            "def peek(server):\n    return server._heap\n", encoding="utf-8"
        )
        code, out = run_cli(capsys, ["lint", str(tmp_path)])
        assert code == 1
        assert "RL002[private-access]" in out
        assert "peek.py:2" in out

    def test_missing_path_is_an_error_not_a_clean_run(self, capsys, tmp_path):
        code = main(["lint", str(tmp_path / "no_such_dir")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no such path" in captured.err and "clean" not in captured.out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["throughput", "--system", "ZFS"])

    def test_perf_command_is_gone(self, capsys):
        """Wall time is the ledger's (benchmarks/ledger/run.py): ``repro``
        has no ``perf`` command and ``compare`` reads no trajectory."""
        with pytest.raises(SystemExit) as exit_info:
            main(["perf"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["compare", "--help"])
        help_text = capsys.readouterr().out
        assert "--systems" in help_text
        for option in ("--perf-labels", "--out-dir", "--serial", "--jobs"):
            assert option not in help_text

    def test_flow_command_is_gone(self, capsys):
        """``repro lint`` is the one static gate: no ``flow`` command, no
        baseline, SARIF or lock-graph option anywhere."""
        with pytest.raises(SystemExit) as exit_info:
            main(["flow", "src"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        help_text = capsys.readouterr().out
        for option in ("--baseline", "--sarif", "--lock-graph", "--json", "--changed"):
            assert option not in help_text

    def test_analyze_command_is_gone(self, capsys):
        """The appender rule is checked where entries are appended, on
        every run: there is no traced-run ``analyze`` command."""
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--strict"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'analyze'" in capsys.readouterr().err
