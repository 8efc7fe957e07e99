"""The docs only name commands, result files, rules and switches that exist.

README.md, DESIGN.md and EXPERIMENTS.md describe the repo as it is, so a
deleted command, figure bench or table may not linger in them.  CHANGES.md
is history and exempt.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from repro.analysis import RULES
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]

_FENCE = re.compile(r"^```.*?$(.*?)^```", re.M | re.S)
_SPAN = re.compile(r"(?<!`)(`+)(?!`)(.+?)(?<!`)\1(?!`)", re.S)
_COMMAND = re.compile(r"(?:^\s*|\bpython3? -m )repro ([a-z]+\b.*)$")
_CITED = re.compile(r"benchmarks/(?:test_\w+\.py|results/[\w.-]+\.txt)")


def _code(text: str):
    """Every line of code in *text*: fenced blocks (backslash continuations
    joined) and inline spans (which may wrap)."""
    for block in _FENCE.findall(text):
        yield from block.replace("\\\n", " ").splitlines()
    for _ticks, span in _SPAN.findall(_FENCE.sub("", text)):
        yield " ".join(span.split())


def _commands(doc: str):
    for line in _code((ROOT / doc).read_text(encoding="utf-8")):
        match = _COMMAND.search(line)
        if match:
            yield match.group(1)


@pytest.mark.parametrize("doc", DOCS)
def test_every_repro_command_parses(doc):
    commands = list(_commands(doc))
    assert commands or doc != "README.md", "README documents no command at all"
    rejected = []
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command, comments=True))
        except SystemExit as exit_info:
            if exit_info.code:
                rejected.append(command)
    assert not rejected, f"{doc} documents commands argparse rejects: {rejected}"


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_bench_and_table_exists(doc):
    cited = set(_CITED.findall((ROOT / doc).read_text(encoding="utf-8")))
    missing = sorted(path for path in cited if not (ROOT / path).exists())
    assert not missing, f"{doc} cites files that do not exist: {missing}"


_PRIVATE = re.compile(r"(?<![\w*])_[A-Za-z]\w*")  # not `__dunder__`, not a `*_glob`


@pytest.fixture(scope="module")
def bound_names():
    """Every name the code binds: functions, classes, assignment targets,
    parameters, and strings (``__slots__`` entries)."""
    names = set()
    for top in ("src", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    if isinstance(node.ctx, ast.Store):
                        names.add(node.id if isinstance(node, ast.Name) else node.attr)
                elif isinstance(node, ast.arg):
                    names.add(node.arg)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


@pytest.mark.parametrize("doc", DOCS)
def test_every_private_name_is_defined(doc, bound_names):
    """A `_private_name` in a code span points into the code (src/, or the
    benchmarks beside it); one that no longer names anything there
    describes code that is gone.  Say history in prose, as CHANGES.md does."""
    text = _FENCE.sub("", (ROOT / doc).read_text(encoding="utf-8"))
    cited = {
        name for _ticks, span in _SPAN.findall(text) for name in _PRIVATE.findall(span)
    }
    missing = sorted(cited - bound_names)
    assert not missing, f"{doc} names private code that is not defined: {missing}"


_RULE_ID = re.compile(r"\bRL\d{3}\b")
_ENV_VAR = re.compile(r"\bREPRO_[A-Z][A-Z_]*\b")


@pytest.fixture(scope="module")
def variables_read():
    """Every ``REPRO_*`` name in the code (this file aside)."""
    return {
        name
        for top in ("src", "tests")
        for path in (ROOT / top).rglob("*.py")
        if path != Path(__file__).resolve()
        for name in _ENV_VAR.findall(path.read_text(encoding="utf-8"))
    }


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
def test_every_rule_id_and_environment_variable_exists(doc, variables_read):
    """A rule id or a ``REPRO_*`` variable anywhere in the present-tense
    docs is one ``repro lint`` enforces, or one the code
    reads.  EXPERIMENTS.md is dated history: it may say, in prose, what a
    PR deleted."""
    text = (ROOT / doc).read_text(encoding="utf-8")
    retired = sorted(set(_RULE_ID.findall(text)) - set(RULES))
    assert not retired, f"{doc} names rules no tool enforces: {retired}"
    unread = sorted(set(_ENV_VAR.findall(text)) - variables_read)
    assert not unread, f"{doc} names environment variables nothing reads: {unread}"
