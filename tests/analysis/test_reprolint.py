"""reprolint: each rule catches its seeded violation, allowlists work."""

import ast
import re
import textwrap
from collections import Counter
from pathlib import Path

from repro.analysis import RULES, Finding, format_finding, lint_paths


def lint_file(path):
    """What ``repro lint <path>`` reports: the one driver, one file."""
    return lint_paths([path]).findings


def _write(tmp_path, name, source):
    p = tmp_path / name
    p.write_text(textwrap.dedent(source), encoding="utf-8")
    return p


def _rules(findings):
    return [f.rule for f in findings]


class TestRL001WallClock:
    def test_time_and_random_module_calls_flagged(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            import time
            import random

            def handler(sim):
                start = time.monotonic()
                jitter = random.random()
                return start + jitter
            """,
        )
        findings = lint_file(p)
        assert _rules(findings) == ["RL001", "RL001"]
        assert "determinism" in findings[0].message

    def test_from_imports_and_datetime_now_flagged(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            from time import monotonic
            from datetime import datetime

            def stamp():
                return monotonic(), datetime.now()
            """,
        )
        assert _rules(lint_file(p)) == ["RL001", "RL001"]

    def test_seeded_rng_helper_is_clean(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            from repro.sim.rand import make_rng

            def pick(seed):
                return make_rng(seed, "pick").randrange(10)
            """,
        )
        assert lint_file(p) == []

    def test_bench_paths_are_exempt(self, tmp_path):
        bench = tmp_path / "bench"
        bench.mkdir()
        p = _write(
            bench,
            "harness.py",
            """
            import time

            def wall():
                return time.perf_counter()
            """,
        )
        assert lint_file(p) == []


class TestRL002PrivateAccess:
    def test_cross_module_private_attribute_flagged(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def peek(server):
                return server._dir_index
            """,
        )
        findings = lint_file(p)
        assert _rules(findings) == ["RL002"]
        assert "public accessor" in findings[0].message

    def test_self_and_locally_defined_privates_are_clean(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            class Box:
                def __init__(self):
                    self._items = []

                def push(self, x):
                    self._items.append(x)

            def drain(box):
                # _items is defined by this module's own class: allowed.
                return box._items
            """,
        )
        assert lint_file(p) == []

    def test_dunder_access_is_clean(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def name_of(obj):
                return type(obj).__name__
            """,
        )
        assert lint_file(p) == []


class TestRL003BareExcept:
    def test_bare_except_flagged(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def risky(op):
                try:
                    op()
                except:
                    pass
            """,
        )
        findings = lint_file(p)
        assert _rules(findings) == ["RL003"]
        assert "GeneratorExit" in findings[0].message

    def test_swallowing_baseexception_flagged(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def risky(op):
                try:
                    op()
                except BaseException:
                    pass
            """,
        )
        assert _rules(lint_file(p)) == ["RL003"]

    def test_reraising_baseexception_is_clean(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def risky(op, log):
                try:
                    op()
                except BaseException:
                    log()
                    raise
                except Exception as exc:
                    log(exc)
            """,
        )
        assert lint_file(p) == []


class TestRL004UnadoptedGenerator:
    def test_bare_generator_call_flagged(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def workflow(sim):
                yield sim.timeout(1)

            def handler(sim):
                workflow(sim)
            """,
        )
        findings = lint_file(p)
        assert _rules(findings) == ["RL004"]
        assert "never" in findings[0].message

    def test_driven_and_spawned_generators_are_clean(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def workflow(sim):
                yield sim.timeout(1)

            def outer(sim):
                sim.spawn(workflow(sim))
                result = yield from workflow(sim)
                return result
            """,
        )
        assert lint_file(p) == []

    def test_self_method_generator_call_flagged(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            class Server:
                def _work(self):
                    yield 1

                def handle(self):
                    self._work()
            """,
        )
        assert _rules(lint_file(p)) == ["RL004"]


class TestRL006SlotlessHotClass:
    def _hot_dir(self, tmp_path):
        d = tmp_path / "core" / "server"
        d.mkdir(parents=True)
        return d

    def test_slotless_class_in_hot_module_flagged(self, tmp_path):
        p = _write(
            self._hot_dir(tmp_path),
            "ops.py",
            """
            class OpState:
                def __init__(self):
                    self.count = 0
            """,
        )
        findings = lint_file(p)
        assert _rules(findings) == ["RL006"]
        assert "__slots__" in findings[0].message

    def test_slotted_class_and_empty_slots_mixin_are_clean(self, tmp_path):
        p = _write(
            self._hot_dir(tmp_path),
            "ops.py",
            """
            class OpState:
                __slots__ = ("count",)

                def __init__(self):
                    self.count = 0


            class OpsMixin:
                __slots__ = ()
            """,
        )
        assert lint_file(p) == []

    def test_exception_and_enum_classes_exempt(self, tmp_path):
        p = _write(
            self._hot_dir(tmp_path),
            "errors.py",
            """
            import enum


            class ShardError(ValueError):
                pass


            class Phase(enum.IntEnum):
                DRAIN = 0
            """,
        )
        assert lint_file(p) == []

    def test_cold_module_not_flagged(self, tmp_path):
        p = _write(
            tmp_path,
            "config.py",
            """
            class Settings:
                def __init__(self):
                    self.retries = 3
            """,
        )
        assert lint_file(p) == []

    def test_sim_kernel_suffix_is_hot(self, tmp_path):
        d = tmp_path / "sim"
        d.mkdir()
        p = _write(
            d,
            "kernel.py",
            """
            class PendingEvent:
                def __init__(self):
                    self.when = 0.0
            """,
        )
        assert _rules(lint_file(p)) == ["RL006"]

    def test_allow_comment_suppresses_cold_singleton(self, tmp_path):
        p = _write(
            self._hot_dir(tmp_path),
            "boot.py",
            """
            class Bootstrapper:  # reprolint: allow[RL006] built once at boot
                def __init__(self):
                    self.ready = False
            """,
        )
        assert lint_file(p) == []


class TestSuppressionAndOutput:
    def test_allow_comment_suppresses_named_rule(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def peek(server):
                return server._heap  # reprolint: allow[private-access] hot path
            """,
        )
        assert lint_file(p) == []

    def test_allow_star_suppresses_everything_on_the_line(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            import time

            def wall(server):
                return time.monotonic(), server._heap  # reprolint: allow[*] bench-only
            """,
        )
        assert lint_file(p) == []

    def test_allow_comment_does_not_leak_to_other_lines(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def peek(server):
                a = server._heap  # reprolint: allow[private-access] ok here
                return server._heap
            """,
        )
        assert _rules(lint_file(p)) == ["RL002"]

    def test_format_finding_layout(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def peek(server):
                return server._heap
            """,
        )
        (finding,) = lint_file(p)
        assert isinstance(finding, Finding)
        text = format_finding(finding)
        assert text.startswith(f"{p}:3:")
        assert "RL002[private-access]" in text

    def test_lint_paths_walks_directories(self, tmp_path):
        _write(tmp_path, "clean.py", "x = 1\n")
        _write(
            tmp_path,
            "dirty.py",
            """
            def peek(server):
                return server._heap
            """,
        )
        sub = tmp_path / "sub"
        sub.mkdir()
        _write(
            sub,
            "nested.py",
            """
            def risky(op):
                try:
                    op()
                except:
                    pass
            """,
        )
        report = lint_paths([tmp_path])
        assert sorted(_rules(report.findings)) == ["RL002", "RL003"]
        assert len(report.files) == 3

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        p = _write(tmp_path, "broken.py", "def oops(:\n")
        findings = lint_file(p)
        assert len(findings) == 1
        assert "syntax error" in findings[0].message

    def test_rule_table_is_complete(self):
        """One table; RL005 and RL101-104 are retired ids, never reused."""
        assert set(RULES) == {"RL001", "RL002", "RL003", "RL004", "RL006", "RL007"}


class TestRL007DeadSuppression:
    def test_dead_allow_comment_is_reported(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def add(a, b):
                return a + b  # reprolint: allow[RL001] was wall-clock once
            """,
        )
        findings = lint_file(p)
        assert _rules(findings) == ["RL007"]
        assert "allow[RL001]" in findings[0].message

    def test_live_suppression_is_not_dead(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            import time

            def wall():
                return time.monotonic()  # reprolint: allow[RL001] boot-time only
            """,
        )
        assert lint_file(p) == []

    def test_blanket_allow_star_is_not_audited(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            """
            def add(a, b):
                return a + b  # reprolint: allow[*] grandfathered
            """,
        )
        assert lint_file(p) == []

    def test_prose_mention_in_docstring_is_not_audited(self, tmp_path):
        p = _write(
            tmp_path,
            "mod.py",
            '''
            def doc():
                """Use '# reprolint: allow[RL001] why' to suppress."""
                return 1
            ''',
        )
        assert lint_file(p) == []

    def test_dead_allow_by_rule_name_is_reported(self, tmp_path):
        """An allow that names its rule by short name is audited like one
        that names the id, and the finding names the id."""
        p = _write(
            tmp_path,
            "mod.py",
            """
            def add(a, b):
                return a + b  # reprolint: allow[unadopted-generator] nothing is dropped here
            """,
        )
        findings = lint_file(p)
        assert _rules(findings) == ["RL007"]
        assert "allow[RL004]" in findings[0].message

    def test_a_token_that_names_no_rule_is_reported(self, tmp_path):
        """A typo or a retired id never suppressed anything; accepted
        silently, it would outlive the rule it once named."""
        p = _write(
            tmp_path,
            "mod.py",
            """
            x = 1  # reprolint: allow[RL005] a retired id
            y = 2  # reprolint: allow[no-such-rule] a typo

            def peek(server):
                return server._heap  # reprolint: allow[private-access, RL999] half right
            """,
        )
        findings = lint_file(p)
        assert [(f.rule, f.line) for f in findings] == [
            ("RL007", 2), ("RL007", 3), ("RL007", 6),
        ]
        assert "allow[RL005] names no rule" in findings[0].message
        assert "allow[no-such-rule] names no rule" in findings[1].message
        assert "allow[RL999] names no rule" in findings[2].message


class TestRepoIsClean:
    SRC = Path(__file__).resolve().parents[2] / "src"

    def test_src_tree_has_no_findings(self):
        """The single static gate — every rule, every suppression audited,
        no baseline — is clean over ``src/``."""
        report = lint_paths([self.SRC])
        assert report.findings == [], "\n".join(map(format_finding, report.findings))
        assert len(report.files) > 50

    def test_nothing_in_src_reads_a_refcount(self):
        """No object is ever reused, so nothing needs to prove that an
        object is unreferenced: a refcount read means a freelist is back."""
        readers = sorted(
            str(path.relative_to(self.SRC))
            for path in self.SRC.rglob("*.py")
            if "getrefcount" in path.read_text(encoding="utf-8")
        )
        assert readers == []

    # Tallies only tests read, each kept for the test that reads it.
    TEST_ONLY_TALLIES = {
        # Network.packets_delivered: the reference count test_hop_equivalence
        # holds the packet hop to.
        "packets_delivered",
        # KVStore.merges: pins DESIGN §11's amortised sort.
        "merges",
    }
    # Named counters only tests read, each kept for the behaviour it pins.
    TEST_ONLY_COUNTERS = {
        # The baselines' placements: InfiniFS's grouped create never updates
        # a parent on another server, CFS-KV's per-file one does
        # (test_baseline_semantics).
        "cross_server_updates",
    }

    def test_every_tally_the_program_bumps_is_read(self):
        """A counter nothing reads costs an add on the op path and a name
        to keep.  Every attribute ``src/repro`` (outside ``analysis/``)
        changes with ``+=`` / ``-=``, and every name it bumps with
        ``counters.inc("<name>")``, is read somewhere in ``src/``,
        ``benchmarks/`` or ``examples/`` other than at its own update
        sites: an attribute load, or a string naming it (the ledger names
        its counters in tuples and reads attributes by ``getattr``).  A
        copy into a ``SwitchStats`` field counts as a read only if
        something outside tests reads that field."""
        root = self.SRC.parent
        package = self.SRC / "repro"
        switch = package / "switchfab" / "switch.py"

        def trees(*dirs):
            for d in dirs:
                for path in sorted(d.rglob("*.py")):
                    yield path, ast.parse(path.read_text(encoding="utf-8"))

        def named_counter(node):
            """The literal *node* bumps if it is ``<...>.counters.inc("<name>")``."""
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "inc" and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "counters" and len(node.args) == 1
                    and isinstance(node.args[0], ast.Constant)):
                return node.args[0]
            return None

        updated, named = {}, {}
        for path, tree in trees(package):
            if path.relative_to(package).parts[0] == "analysis":
                continue
            for node in ast.walk(tree):
                if (isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub))
                        and isinstance(node.target, ast.Attribute)):
                    site = f"{path.relative_to(self.SRC)}:{node.lineno}"
                    updated.setdefault(node.target.attr, []).append(site)
                elif (literal := named_counter(node)) is not None:
                    site = f"{path.relative_to(self.SRC)}:{node.lineno}"
                    named.setdefault(literal.value, []).append(site)

        (stats_cls,) = [node for node in ast.walk(ast.parse(switch.read_text(encoding="utf-8")))
                        if isinstance(node, ast.ClassDef) and node.name == "SwitchStats"]
        fields = {node.target.id for node in stats_cls.body if isinstance(node, ast.AnnAssign)}
        reads = Counter()
        copies = []  # (SwitchStats field, attribute copied into it)
        for path, tree in trees(self.SRC, root / "benchmarks", root / "examples"):
            skip = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                    skip.update(id(n) for n in ast.walk(node.value)
                                if isinstance(n, ast.Attribute) and n.attr == node.target.attr)
                elif (path == switch and isinstance(node, ast.keyword)
                      and node.arg in fields and isinstance(node.value, ast.Attribute)):
                    skip.add(id(node.value))
                    copies.append((node.arg, node.value.attr))
                elif (literal := named_counter(node)) is not None:
                    skip.add(id(literal))
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads[node.attr] += 1
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    reads[node.value] += 1
        for field, attr in copies:
            if reads[field]:
                reads[attr] += 1

        unread = {attr: sites for attr, sites in sorted(updated.items())
                  if not reads[attr] and attr not in self.TEST_ONLY_TALLIES}
        unread.update((name, sites) for name, sites in sorted(named.items())
                      if not reads[name] and name not in self.TEST_ONLY_COUNTERS)
        assert unread == {}
        assert self.TEST_ONLY_TALLIES <= set(updated)
        assert self.TEST_ONLY_COUNTERS <= set(named)

    def test_every_slot_a_record_declares_is_read(self):
        """A field nothing reads costs a store per instance and a name to
        keep.  Every literal ``__slots__`` entry of a class in
        ``src/repro`` (outside ``analysis/``) has an attribute load in
        ``src/``, ``benchmarks/`` or ``examples/``.  A load inside
        ``__repr__`` or ``clone`` does not count, nor does one passed
        straight into ``alloc_packet`` or a ``src`` class constructor: a
        copy into another record is not a read."""
        root = self.SRC.parent
        package = self.SRC / "repro"

        def trees(*dirs):
            for d in dirs:
                for path in sorted(d.rglob("*.py")):
                    yield path, ast.parse(path.read_text(encoding="utf-8"))

        declared = {}  # slot -> the classes declaring it
        constructors = {"alloc_packet"}  # and every src class, added below
        for path, tree in trees(package):
            in_analysis = path.relative_to(package).parts[0] == "analysis"
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                constructors.add(node.name)
                for stmt in node.body:
                    if (not in_analysis and isinstance(stmt, ast.Assign)
                            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                    for t in stmt.targets)
                            and isinstance(stmt.value, (ast.Tuple, ast.List))):
                        for elt in stmt.value.elts:
                            site = f"{path.relative_to(self.SRC)}:{node.name}"
                            declared.setdefault(elt.value, []).append(site)

        reads = set()
        for path, tree in trees(self.SRC, root / "benchmarks", root / "examples"):
            skip = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name in ("__repr__", "clone"):
                    skip.update(id(n) for n in ast.walk(node))
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    if name in constructors:
                        skip.update(id(arg) for arg in node.args)
                        skip.update(id(kw.value) for kw in node.keywords)
            reads.update(node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                         and id(node) not in skip)

        unread = {slot: sites for slot, sites in sorted(declared.items()) if slot not in reads}
        assert unread == {}

    # Config fields the gate below excuses, each kept for the reason beside it.
    TEST_ONLY_FIELDS = {
        # Read by nothing: the ledger's scenarios pass it (ROADMAP 4(i)).
        "FSConfig.seed",
    }

    def test_every_config_field_is_read_and_set_outside_tests(self):
        """A field the program never reads is a knob that does nothing, and
        one only tests set is a code path only tests run.  Every
        ``FSConfig`` field is read and given a value in ``src/``,
        ``benchmarks/`` or ``examples/``; every ``PerfModel`` field is read
        there.  A read is an attribute load through a name ending in
        ``config``, ``cfg`` or ``perf`` (``self.config.recast``,
        ``server.perf.kv_get_us``), or through ``self`` in ``config.py``
        outside ``__post_init__``, whose checks are not a use.  A value is
        a keyword argument of that name in any call (``scaled_config`` and
        ``dataclasses.replace`` pass theirs on), or a positional argument
        to the class itself."""
        root = self.SRC.parent
        config = self.SRC / "repro" / "core" / "config.py"
        classes = {node.name: node for node in ast.parse(config.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.ClassDef) and node.name in ("FSConfig", "PerfModel")}
        fields = {name: [stmt.target.id for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
                  for name, cls in classes.items()}
        owner = {field: name for name, names in fields.items() for field in names}
        assert set(fields["FSConfig"]).isdisjoint(fields["PerfModel"])

        read, given = set(), set()
        for path in sorted([*self.SRC.rglob("*.py"), *(root / "benchmarks").rglob("*.py"),
                            *(root / "examples").rglob("*.py")]):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            checks = set()
            if path == config:
                checks = {id(n) for cls in classes.values() for fn in cls.body
                          if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                          for n in ast.walk(fn)}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and node.attr in owner and id(node) not in checks):
                    base = node.value
                    name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
                    if (name.endswith(("config", "cfg", "perf"))
                            or (path == config and name == "self")):
                        read.add(f"{owner[node.attr]}.{node.attr}")
                elif isinstance(node, ast.Call):
                    given.update(f"{owner[kw.arg]}.{kw.arg}" for kw in node.keywords
                                 if kw.arg in owner)
                    func = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if func in fields:
                        given.update(f"{func}.{f}" for f in fields[func][:len(node.args)])

        unread = {f"{cls}.{f}" for cls, names in fields.items() for f in names} - read
        unset = {f"FSConfig.{f}" for f in fields["FSConfig"]} - given
        assert (unread | unset) - self.TEST_ONLY_FIELDS == set(), (sorted(unread), sorted(unset))
        assert self.TEST_ONLY_FIELDS <= unread | unset

    # Public defs only tests reach, each kept for the reason beside it.
    TEST_ONLY_DEFS = {
        # ROADMAP item 10 re-runs the figures at the paper's Table 4 scale.
        "paper_scale",
        # The next five are how tests/sim and the kernel-entries-per-op gate
        # in test_refcount_clean.py check DESIGN §9's dispatch contract:
        # whether an event has been popped,
        "Event.processed",
        # the tick count, which is the number of kernel entries,
        "Simulator.reserve_seq",
        # one entry at a time,
        "Simulator.step",
        # and a resource's holders and waiters.
        "Resource.in_use",
        "Resource.queued",
    }

    def test_every_public_def_is_reached_outside_tests(self):
        """A def only tests call is surface to keep that the program never
        runs.  Every public function, method and class in ``src/repro`` is
        reached by name from the program's entry points: ``repro/cli.py``,
        ``repro/__main__.py``, ``benchmarks/`` (the ledger too),
        ``examples/``, and the module-level statements of ``src/repro``
        (imports and ``__all__`` aside).  A name is an attribute or name
        load, an import alias, or an identifier inside a string that is not
        a docstring.  A reached function adds the names in its body; a
        reached class adds its bases, decorators and class-level
        statements, and its dunders and ``visit_*`` methods count as
        reached (Python and ``ast.NodeVisitor`` call them).

        Names collide (a local variable reaches every method of its name),
        so this is a lower bound: a def it passes may still be test-only."""
        root = self.SRC.parent
        package = self.SRC / "repro"
        words = re.compile(r"[A-Za-z_]\w*")
        defs_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

        def is_doc(stmt):
            return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str))

        def names(node):
            docs = {id(n.body[0]) for n in ast.walk(node)
                    if isinstance(n, (ast.Module, *defs_types)) and n.body and is_doc(n.body[0])}
            found, skip = set(), set()
            for n in ast.walk(node):
                if id(n) in docs:
                    skip.add(id(n.value))
                elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    found.add(n.id)
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    found.add(n.attr)
                elif isinstance(n, ast.alias):
                    found.update(n.name.split("."))
                    found.add(n.asname or n.name)
                elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                      and id(n) not in skip):
                    found.update(words.findall(n.value))
            return found

        reached = set()
        roots = [package / "cli.py", package / "__main__.py",
                 *(root / "benchmarks").rglob("*.py"), *(root / "examples").rglob("*.py")]
        for path in roots:
            reached |= names(ast.parse(path.read_text(encoding="utf-8")))

        defs = []  # (qualified name, node, enclosing class's qualified name)

        def collect(body, owner):
            for stmt in body:
                if isinstance(stmt, defs_types):
                    qual = f"{owner}.{stmt.name}" if owner else stmt.name
                    defs.append((qual, stmt, owner))
                    if isinstance(stmt, ast.ClassDef):
                        collect(stmt.body, qual)

        for path in sorted(package.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for stmt in tree.body:
                if ((stmt is tree.body[0] and is_doc(stmt))
                        or isinstance(stmt, (ast.Import, ast.ImportFrom, *defs_types))):
                    continue
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                    continue
                reached |= names(stmt)
            collect(tree.body, "")

        done = set()
        grew = True
        while grew:
            grew = False
            for qual, node, owner in defs:
                implicit = owner in done and (node.name.startswith("visit_") or (
                    node.name.startswith("__") and node.name.endswith("__")))
                if qual in done or not (node.name in reached or implicit):
                    continue
                done.add(qual)
                grew = True
                if isinstance(node, ast.ClassDef):
                    for part in (*node.bases, *node.keywords, *node.decorator_list):
                        reached |= names(part)
                    for stmt in node.body:
                        if not ((stmt is node.body[0] and is_doc(stmt))
                                or isinstance(stmt, defs_types)):
                            reached |= names(stmt)
                else:
                    reached |= names(node)

        unreached = {qual for qual, node, _ in defs
                     if qual not in done and not node.name.startswith("_")}
        assert unreached - self.TEST_ONLY_DEFS == set()
        assert self.TEST_ONLY_DEFS <= unreached
