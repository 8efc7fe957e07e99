"""CFG construction: hand-drawn edge lists for the corner cases.

Each test parses a small function, builds its CFG, and asserts the full
``edge_lines()`` set — ``(src_line, dst_line, kind)`` triples with the
sentinels ``ENTRY_LINE``/``EXIT_LINE``/``RAISE_LINE`` — against an edge
list drawn by hand from the construction rules in DESIGN.md §17.
Sources put ``def`` on line 2 so statement line numbers in the
assertions match what you count in the snippet.
"""

import ast
import textwrap

from repro.analysis.cfg import (
    ENTRY_LINE,
    EXIT_LINE,
    RAISE_LINE,
    build_cfg,
    stmt_yields,
)


def cfg_of(source, index=0):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body[index])


class TestTryFinallyWithYield:
    SOURCE = """
    def gen():
        try:
            yield step()
        finally:
            cleanup()
    """

    def test_edges(self):
        cfg = cfg_of(self.SOURCE)
        assert cfg.edge_lines() == {
            (ENTRY_LINE, 4, "next"),      # entry -> yield node
            (4, 4, "resume"),             # yield -> resume statement
            (4, 6, "except"),             # step() may raise -> finally
            (4, 6, "next"),               # clean body -> finally
            (6, 6, "next"),               # finally anchor -> cleanup()
            (6, RAISE_LINE, "finally"),   # unhandled exception escapes
            (6, EXIT_LINE, "next"),       # normal completion
        }

    def test_yield_node_present(self):
        cfg = cfg_of(self.SOURCE)
        assert [n.lineno for n in cfg.yield_nodes()] == [4]


class TestReturnThroughFinally:
    SOURCE = """
    def gen(lock):
        yield lock.acquire()
        try:
            return use()
        finally:
            lock.release()
    """

    def test_edges(self):
        cfg = cfg_of(self.SOURCE)
        assert cfg.edge_lines() == {
            (ENTRY_LINE, 3, "next"),      # entry -> yield node
            (3, 3, "resume"),             # yield -> its statement
            (3, 5, "next"),               # into the try body
            (5, 7, "except"),             # use() may raise -> finally
            (5, 7, "return"),             # return routes THROUGH finally
            (7, 7, "next"),               # finally anchor -> release()
            (7, EXIT_LINE, "finally"),    # ...then completes the return
            (7, RAISE_LINE, "finally"),   # ...or keeps propagating
        }
        # The return never reaches the exit directly: every path to the
        # exit passes the finally body (that ordering is what lets a
        # dataflow rule see a release-in-finally on the return path).
        direct = [(s, d, k) for (s, d, k) in cfg.edge_lines()
                  if d == EXIT_LINE and s != 7]
        assert direct == []


class TestWhileElseWithBreak:
    SOURCE = """
    def f(i):
        i = start()
        while cond(i):
            if stop(i):
                break
            i = advance(i)
        else:
            finish()
        return i
    """

    def test_edges(self):
        cfg = cfg_of(self.SOURCE)
        assert cfg.edge_lines() == {
            (ENTRY_LINE, 3, "next"),
            (3, 4, "next"),
            (4, 5, "true"),               # loop body entered
            (5, 6, "true"),               # break taken
            (5, 7, "false"),              # loop body continues
            (7, 4, "loop"),               # back edge
            (4, 9, "false"),              # condition falsified -> else
            (9, 10, "next"),              # else falls through to return
            (6, 10, "break"),             # break BYPASSES the else arm
            (10, EXIT_LINE, "return"),
        }


class TestNestedGenerators:
    SOURCE = """
    def outer():
        def inner():
            yield make()
        yield from inner()
    """

    def test_outer_treats_inner_as_opaque(self):
        cfg = cfg_of(self.SOURCE)
        assert cfg.edge_lines() == {
            (ENTRY_LINE, 3, "next"),      # 'def inner' is one opaque node
            (3, 5, "next"),
            (5, 5, "resume"),             # the outer's own yield-from
            (5, EXIT_LINE, "next"),
        }
        # Only the outer function's suspension appears — not inner's.
        assert [n.lineno for n in cfg.yield_nodes()] == [5]

    def test_inner_gets_its_own_cfg(self):
        tree = ast.parse(textwrap.dedent(self.SOURCE))
        inner = tree.body[0].body[0]
        cfg = build_cfg(inner)
        assert cfg.edge_lines() == {
            (ENTRY_LINE, 4, "next"),
            (4, 4, "resume"),
            (4, EXIT_LINE, "next"),
        }


class TestComprehensionScopes:
    SOURCE = """
    def f(xs):
        ys = [g(x) for x in xs]
        return sorted(ys)
    """

    def test_comprehension_is_one_statement(self):
        cfg = cfg_of(self.SOURCE)
        assert cfg.edge_lines() == {
            (ENTRY_LINE, 3, "next"),
            (3, 4, "next"),
            (4, EXIT_LINE, "return"),
        }
        assert cfg.yield_nodes() == []

    def test_stmt_yields_skips_lambda_bodies(self):
        # stmt_yields must not look through nested def/lambda scopes.
        src = textwrap.dedent("""
        def f():
            cb = lambda: (yield 1)
            yield 2
        """)
        fn = ast.parse(src).body[0]
        assert [y.value.value for y in stmt_yields(fn.body[0])] == []
        assert len(stmt_yields(fn.body[1])) == 1


class TestWithEarlyReturn:
    SOURCE = """
    def f(res):
        with res.open() as h:
            if bad(h):
                return None
            work(h)
        return done()
    """

    def test_edges(self):
        cfg = cfg_of(self.SOURCE)
        # The synthetic with-exit node carries the with statement's line
        # (3); both the early return and the normal fall-through pass
        # through it — that is the __exit__ call.
        assert cfg.edge_lines() == {
            (ENTRY_LINE, 3, "next"),
            (3, 4, "next"),               # with head -> if
            (4, 5, "true"),               # early return...
            (5, 3, "return"),             # ...routes through with-exit
            (4, 6, "false"),
            (6, 3, "next"),               # normal body end -> with-exit
            (3, EXIT_LINE, "finally"),    # with-exit completes the return
            (3, 7, "next"),               # with-exit -> code after block
            (7, EXIT_LINE, "return"),
        }


class TestLoopYieldResume:
    SOURCE = """
    def gen(lock, items):
        for item in items:
            yield lock.acquire()
            lock.release()
    """

    def test_yield_in_loop_body(self):
        cfg = cfg_of(self.SOURCE)
        assert cfg.edge_lines() == {
            (ENTRY_LINE, 3, "next"),
            (3, 4, "true"),               # loop body -> yield node
            (4, 4, "resume"),             # suspension -> resume stmt
            (4, 5, "next"),
            (5, 3, "loop"),               # back edge
            (3, EXIT_LINE, "false"),      # iterator exhausted
        }

    def test_multiple_yields_in_one_statement_chain(self):
        src = """
        def gen(a, b):
            total = (yield a.get()) + (yield b.get())
        """
        cfg = cfg_of(src)
        ys = cfg.yield_nodes()
        assert len(ys) == 2
        # Suspensions chain in evaluation order before the binding runs.
        assert cfg.edge_lines() == {
            (ENTRY_LINE, 3, "next"),      # entry -> first yield
            (3, 3, "resume"),             # first -> second, second -> stmt
            (3, EXIT_LINE, "next"),
        }
        first, second = ys
        assert (second.idx, "resume") in cfg.succs[first.idx]


class TestRaiseOutsideTry:
    SOURCE = """
    def f(x):
        if x:
            raise ValueError(x)
        return ok(x)
    """

    def test_explicit_raise_reaches_raise_exit(self):
        cfg = cfg_of(self.SOURCE)
        assert cfg.edge_lines() == {
            (ENTRY_LINE, 3, "next"),
            (3, 4, "true"),
            (4, RAISE_LINE, "raise"),     # explicit raise only...
            (3, 5, "false"),
            (5, EXIT_LINE, "return"),     # ...ok(x) gets no implicit edge
        }
