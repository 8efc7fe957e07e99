"""The analysis hooks are zero-cost residue when disabled (DESIGN.md §12).

These tests pin the *mechanism* of the perf guarantee: a detached
simulator carries only a ``tracer is None`` test in the resource paths
and spawns the stock :class:`Process`.
"""

from repro.analysis import SimTracer
from repro.sim import Lock, Simulator
from repro.sim.kernel import Process


class TestTracerDetached:
    def test_fresh_simulator_has_no_tracer(self):
        sim = Simulator()
        assert sim.tracer is None
        # The process class is the *class attribute* default: no per-
        # instance slot is paid until a tracer attaches.
        assert "_process_cls" not in sim.__dict__
        assert Simulator._process_cls is Process

    def test_untraced_spawn_uses_stock_process(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)

        p = sim.spawn(proc(), name="p")
        assert type(p) is Process
        sim.run()

    def test_attach_swaps_process_class_detach_restores_it(self):
        sim = Simulator()
        tracer = SimTracer(capture_stacks=False)
        tracer.attach(sim)
        assert sim.tracer is tracer
        assert sim._process_cls is not Process

        def traced():
            yield sim.timeout(1)

        p = sim.spawn(traced(), name="traced")
        assert type(p) is not Process  # _TracedProcess subclass
        sim.run()
        tracer.detach()

        assert sim.tracer is None
        assert "_process_cls" not in sim.__dict__

        def plain():
            yield sim.timeout(1)

        q = sim.spawn(plain(), name="plain")
        assert type(q) is Process
        sim.run()

    def test_detached_run_records_nothing(self):
        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)
        tracer.detach()
        lock = Lock(sim, name="L")

        def worker():
            yield lock.acquire()
            yield sim.timeout(1)
            lock.release()

        sim.spawn(worker(), name="w")
        sim.run()
        assert tracer.lock_events == []
        assert tracer.order_edges == {}

    def test_double_attach_is_rejected(self):
        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)
        try:
            import pytest

            with pytest.raises(RuntimeError):
                tracer.attach(Simulator())
        finally:
            tracer.detach()
