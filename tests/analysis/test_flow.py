"""Flow analyses: seeded bugs reprolint misses, baseline/SARIF plumbing,
dead-suppression audits, and the static/dynamic lock-order cross-check."""

import json
import textwrap
from pathlib import Path

import repro
from repro.analysis import SimTracer, instrument_server
from repro.analysis import flow
from repro.analysis.callgraph import scan_project
from repro.analysis.reprolint import lint_file
from repro.core import FSConfig, SwitchFSCluster


def _write(tmp_path, name, source):
    p = tmp_path / name
    p.write_text(textwrap.dedent(source), encoding="utf-8")
    return p


def _findings(tmp_path, *, rule=None):
    report = flow.analyze_paths([tmp_path])
    if rule is None:
        return report.findings
    return [f for f in report.findings if f.rule == rule]


# A minimal lock runtime the seeded-bug files share: a producer with the
# runtime's naming convention and an acquire wrapper, exactly the facts
# the real ServerRuntime exposes.
RUNTIME = """
from repro.sim import RWLock


class MiniRuntime:
    def _inode_lock(self, key):
        return RWLock(self.sim, name=f"inode:{key}")

    def _changelog_lock(self, dir_id):
        return RWLock(self.sim, name=f"changelog:{dir_id}")

    def _acquire(self, lock, mode):
        if mode == "r":
            yield lock.acquire_read()
        else:
            yield lock.acquire_write()
"""


class TestRL102LockAcrossYield:
    def test_seeded_event_wait_under_lock_is_caught(self, tmp_path):
        p = _write(tmp_path, "held.py", RUNTIME + """
    def op(self, key):
        lock = self._inode_lock(key)
        yield from self._acquire(lock, "w")
        yield self.completion_event()
        lock.release_write()
        """)
        found = _findings(tmp_path, rule="RL102")
        assert len(found) == 1
        assert found[0].symbol == "inode"
        assert lint_file(p) == []

    def test_bounded_waits_under_lock_are_not_flagged(self, tmp_path):
        _write(tmp_path, "bounded.py", RUNTIME + """
    def op(self, key):
        lock = self._inode_lock(key)
        yield from self._acquire(lock, "w")
        yield self.sim.timeout(5)
        yield self.cores.acquire()
        lock.release_write()
        """)
        assert _findings(tmp_path, rule="RL102") == []

    def test_pool_hold_and_its_producers_are_bounded_waits(self, tmp_path):
        """``yield self._cpu(x)``: a plain function returning a timed hold
        on the core pool (and a class-level alias of it) is a hold
        producer, derived from its body, not from its name."""
        _write(tmp_path, "held_hold.py", RUNTIME + """
    def spend(self, us):
        return self.cores.hold(us * self.mult, self.phases)

    _burn = spend

    def op(self, key):
        lock = self._inode_lock(key)
        yield from self._acquire(lock, "w")
        yield self.cores.hold(2.0)
        yield self.cores.hold_all(3, 2.0)
        yield self.spend(2.0)
        yield self._burn(2.0)
        lock.release_write()
        """)
        assert _findings(tmp_path, rule="RL102") == []
        project = scan_project([tmp_path])
        assert project.hold_producers == {"spend", "_burn"}
        op = next(f for f in project.functions.values() if f.name == "op")
        assert op.wait_kinds == {"lock", "pool", "timeout"}

    def test_a_hold_on_something_else_is_still_an_event_wait(self, tmp_path):
        _write(tmp_path, "held_other.py", RUNTIME + """
    def lookalike(self, us):
        return self.gate.hold(us)

    def op(self, key):
        lock = self._inode_lock(key)
        yield from self._acquire(lock, "w")
        yield self.lookalike(2.0)
        lock.release_write()
        """)
        assert len(_findings(tmp_path, rule="RL102")) == 1

    def test_release_before_event_wait_is_clean(self, tmp_path):
        _write(tmp_path, "released.py", RUNTIME + """
    def op(self, key):
        lock = self._inode_lock(key)
        yield from self._acquire(lock, "w")
        lock.release_write()
        yield self.completion_event()
        """)
        assert _findings(tmp_path, rule="RL102") == []

    def test_lock_handed_back_by_the_wrapper_and_released_through_one(self, tmp_path):
        """The runtime's idiom since the tables hold held locks only: the
        producer call is the wrapper's argument, the wrapper returns the
        lock, and a plain ``_release(lock, mode)`` gives it back."""
        _write(tmp_path, "handed.py", RUNTIME + """
        return lock

    def _release(self, lock, mode):
        if mode == "w":
            lock.release_write()
        else:
            lock.release_read()
        self.forget(lock)

    def held(self, key):
        lock = yield from self._acquire(self._inode_lock(key), "w")
        yield self.completion_event()
        self._release(lock, "w")

    def released(self, key, dir_id):
        cl = yield from self._acquire(self._changelog_lock(dir_id), "r")
        lock = yield from self._acquire(self._inode_lock(key), "w")
        self._release(lock, "w")
        self._release(cl, "r")
        yield self.completion_event()
        """)
        found = _findings(tmp_path, rule="RL102")
        assert [(f.function, f.symbol) for f in found] == [("held", "inode")]
        project = scan_project([tmp_path])
        wrappers = {f.name: (f.acquire_wrapper_param, f.release_wrapper_param)
                    for f in project.functions.values()}
        assert wrappers["_acquire"] == (0, None) and wrappers["_release"] == (None, 0)
        assert ("changelog", "inode") in flow.analyze_paths([tmp_path]).lock_graph


class TestRL103LockOrderGraph:
    def test_opposite_acquisition_orders_make_a_cycle(self, tmp_path):
        _write(tmp_path, "order.py", RUNTIME + """
    def forward(self, key, dir_id):
        ilock = self._inode_lock(key)
        cl = self._changelog_lock(dir_id)
        yield from self._acquire(ilock, "w")
        yield from self._acquire(cl, "r")
        cl.release_read()
        ilock.release_write()

    def backward(self, key, dir_id):
        ilock = self._inode_lock(key)
        cl = self._changelog_lock(dir_id)
        yield from self._acquire(cl, "r")
        yield from self._acquire(ilock, "w")
        ilock.release_write()
        cl.release_read()
        """)
        report = flow.analyze_paths([tmp_path])
        edges = set(report.lock_graph)
        assert ("inode", "changelog") in edges
        assert ("changelog", "inode") in edges
        assert ["changelog", "inode"] in report.cycles
        assert any(f.rule == "RL103" for f in report.findings)

    def test_single_order_has_no_cycle(self, tmp_path):
        _write(tmp_path, "oneway.py", RUNTIME + """
    def forward(self, key, dir_id):
        ilock = self._inode_lock(key)
        cl = self._changelog_lock(dir_id)
        yield from self._acquire(ilock, "w")
        yield from self._acquire(cl, "r")
        cl.release_read()
        ilock.release_write()
        """)
        report = flow.analyze_paths([tmp_path])
        assert set(report.lock_graph) == {("inode", "changelog")}
        assert report.cycles == []


class TestRL104StaleView:
    def test_seeded_stale_owner_is_caught(self, tmp_path):
        p = _write(tmp_path, "stale.py", """
        def route(self, key):
            owner = self.membership.current.owner_of(key)
            yield self.sim.timeout(1)
            return self.call(owner)
        """)
        found = _findings(tmp_path, rule="RL104")
        assert len(found) == 1
        assert found[0].symbol == "owner"
        assert lint_file(p) == []

    def test_use_before_any_yield_is_fresh(self, tmp_path):
        _write(tmp_path, "fresh.py", """
        def route(self, key):
            owner = self.membership.current.owner_of(key)
            value = yield from self.call(owner, key)
            return value
        """)
        # owner is consumed while evaluating the yield-from operand —
        # before the suspension — so it is not stale there.
        assert _findings(tmp_path, rule="RL104") == []

    def test_rebinding_after_resume_refreshes(self, tmp_path):
        _write(tmp_path, "refresh.py", """
        def route(self, key):
            owner = self.membership.current.owner_of(key)
            yield self.sim.timeout(1)
            owner = self.membership.current.owner_of(key)
            return self.call(owner)
        """)
        assert _findings(tmp_path, rule="RL104") == []


class TestSuppressionAndAudit:
    def test_allow_comment_suppresses_a_flow_finding(self, tmp_path):
        _write(tmp_path, "ok.py", """
        def route(self, key):
            owner = self.membership.current.owner_of(key)
            yield self.sim.timeout(1)
            return self.call(owner)  # reprolint: allow[RL104] epoch-checked downstream
        """)
        report = flow.analyze_paths([tmp_path])
        assert [f.rule for f in report.findings] == []

    def test_dead_flow_suppression_is_reported(self, tmp_path):
        _write(tmp_path, "dead.py", """
        def route(self, key):
            return key + 1  # reprolint: allow[RL104] nothing fires here
        """)
        report = flow.analyze_paths([tmp_path])
        assert [f.rule for f in report.findings] == ["RL007"]
        assert "RL104" in report.findings[0].message

    def test_prose_mention_in_docstring_is_not_audited(self, tmp_path):
        _write(tmp_path, "prose.py", '''
        def doc(self):
            """Suppress with '# reprolint: allow[RL104] why' on the line."""
            return 1
        ''')
        report = flow.analyze_paths([tmp_path])
        assert report.findings == []


class TestBaselineRoundTrip:
    def test_round_trip_masks_known_findings_only(self, tmp_path):
        _write(tmp_path, "stale.py", """
        def route(self, key):
            owner = self.membership.current.owner_of(key)
            yield self.sim.timeout(1)
            return self.call(owner)
        """)
        report = flow.analyze_paths([tmp_path])
        assert len(report.findings) == 1
        baseline_file = tmp_path / "baseline.json"
        flow.write_baseline(baseline_file, report)
        baseline = flow.load_baseline(baseline_file)
        assert flow.new_findings(report, baseline) == []

        # A second, unbaselined finding surfaces while the old one stays
        # masked — fingerprints are line-free, so unrelated churn above
        # the finding does not invalidate the baseline.
        _write(tmp_path, "stale.py", """
        def moved():
            return 0

        def route(self, key):
            owner = self.membership.current.owner_of(key)
            yield self.sim.timeout(1)
            return self.call(owner)

        def route2(self, key):
            owner = self.membership.current.owner_of(key)
            yield self.sim.timeout(1)
            return self.call(owner)
        """)
        report2 = flow.analyze_paths([tmp_path])
        fresh = flow.new_findings(report2, baseline)
        assert [f.function for f in fresh] == ["route2"]

    def test_unused_baseline_entry_is_a_finding(self, tmp_path):
        """A baseline only subtracts; an entry left behind by a fixed (or
        renamed) finding would be carried for ever.  The run that reports
        on the entry's file fails on it, naming the fingerprint; a run
        restricted to other files (``--changed``) does not judge it."""
        _write(tmp_path, "stale.py", """
        def route(self, key):
            owner = self.membership.current.owner_of(key)
            yield self.sim.timeout(1)
            return self.call(owner)
        """)
        other = _write(tmp_path, "other.py", """
        def fine():
            return 0
        """)
        (finding,) = flow.analyze_paths([tmp_path]).findings
        baseline = {finding.fingerprint: 2}  # one more than there is

        (unused,) = flow.new_findings(flow.analyze_paths([tmp_path]), baseline)
        assert unused.rule == "RL007" and unused.sink == "unused-baseline"
        assert finding.fingerprint in unused.message and "1 finding(s)" in unused.message

        _write(tmp_path, "stale.py", """
        def route(self, key):
            yield self.sim.timeout(1)
            return self.call(self.membership.current.owner_of(key))
        """)
        (unused,) = flow.new_findings(flow.analyze_paths([tmp_path]), baseline)
        assert "2 finding(s)" in unused.message

        elsewhere = flow.analyze_paths([tmp_path], restrict_to=[other])
        assert flow.new_findings(elsewhere, baseline) == []

    def test_baseline_file_shape(self, tmp_path):
        _write(tmp_path, "dead.py", """
        def route(self, key):
            return key  # reprolint: allow[RL102] dead on purpose
        """)
        report = flow.analyze_paths([tmp_path])
        baseline_file = tmp_path / "baseline.json"
        flow.write_baseline(baseline_file, report)
        data = json.loads(baseline_file.read_text())
        assert data["version"] == 1
        assert all(isinstance(v, int) for v in data["fingerprints"].values())


class TestSarif:
    def test_sarif_document_shape(self, tmp_path):
        _write(tmp_path, "stale.py", """
        def route(self, key):
            owner = self.membership.current.owner_of(key)
            yield self.sim.timeout(1)
            return self.call(owner)
        """)
        report = flow.analyze_paths([tmp_path])
        doc = flow.to_sarif(report)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-flow"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(flow.FLOW_RULES)
        (result,) = run["results"]
        assert result["ruleId"] == "RL104"
        assert result["locations"][0]["physicalLocation"]["region"]["startLine"] > 0
        assert result["partialFingerprints"]["reproFlow/v1"].startswith("RL104:")
        json.dumps(doc)  # must be serialisable as-is


class TestStaticDynamicCrossCheck:
    def test_static_graph_covers_every_dynamic_edge(self):
        """Soundness direction of DESIGN.md §17: any (held, acquired)
        class edge SimTracer witnesses at run time must already be in
        the static graph — a miss means call resolution lost a path."""
        src_root = Path(repro.__file__).parent
        report = flow.analyze_paths([src_root])

        cluster = SwitchFSCluster(FSConfig(num_servers=2, cores_per_server=2, seed=29))
        tracer = SimTracer(capture_stacks=False)
        tracer.attach(cluster.sim)
        for server in cluster.servers:
            instrument_server(tracer, server)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/a"))
        cluster.run_op(fs.mkdir("/b"))
        for i in range(20):
            cluster.run_op(fs.create(f"/a/f{i}"))
            cluster.run_op(fs.mkdir(f"/a/d{i}"))
        for i in range(10):
            cluster.run_op(fs.rename(f"/a/f{i}", f"/b/r{i}"))
            cluster.run_op(fs.rmdir(f"/a/d{i}"))
        cluster.settle()
        tracer.detach()
        assert tracer.order_edges, "workload produced no nested acquisitions"

        check = flow.cross_check_lock_orders(report, tracer)
        assert check["dynamic_only"] == [], (
            "dynamic lock-order edges missing from the static graph: "
            f"{check['dynamic_only']}"
        )
        assert check["sound"] is True
        # The reverse direction is informational: statically possible
        # edges this one workload never scheduled.
        assert set(check["static_edges"]) >= set(check["dynamic_edges"])


class TestRepoIsFlowClean:
    def test_src_has_no_unbaselined_findings(self):
        repo_root = Path(repro.__file__).resolve().parents[2]
        baseline_file = repo_root / "flow-baseline.json"
        report = flow.analyze_paths([Path(repro.__file__).parent])
        baseline = flow.load_baseline(baseline_file)
        fresh = flow.new_findings(report, baseline)
        assert fresh == [], [flow.format_flow_finding(f) for f in fresh]
