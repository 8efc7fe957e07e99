"""Dynamic race & lock-order detector: synthetic cycles and races."""

from repro.analysis import SimTracer, analyze_report, lock_order_cycles, race_findings
from repro.sim import Lock, RWLock, Simulator


def _hold_then(sim, first, second, label):
    """Acquire *first*, wait, acquire *second*, wait, release both."""
    yield first.acquire()
    yield sim.timeout(1)
    yield second.acquire()
    yield sim.timeout(1)
    second.release()
    first.release()


class TestLockOrderCycles:
    def test_synthetic_two_lock_cycle_is_reported(self):
        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)
        a = Lock(sim, name="lock-A")
        b = Lock(sim, name="lock-B")
        sim.spawn(_hold_then(sim, a, b, "ab"), name="proc-ab")

        def later():
            # Start after proc-ab finished: no actual deadlock occurs,
            # but the opposite acquisition order is still a latent cycle.
            yield sim.timeout(10)
            yield from _hold_then(sim, b, a, "ba")

        sim.spawn(later(), name="proc-ba")
        sim.run()
        tracer.detach()

        cycles = lock_order_cycles(tracer)
        assert len(cycles) == 1
        labels = set(cycles[0]["labels"])
        assert labels == {"lock-A", "lock-B"}
        procs = {w["proc"] for w in cycles[0]["witnesses"]}
        assert procs == {"proc-ab", "proc-ba"}

    def test_report_carries_names_times_and_stacks(self):
        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)
        a = Lock(sim, name="lock-A")
        b = Lock(sim, name="lock-B")
        sim.spawn(_hold_then(sim, a, b, "ab"), name="proc-ab")

        def later():
            yield sim.timeout(10)
            yield from _hold_then(sim, b, a, "ba")

        sim.spawn(later(), name="proc-ba")
        sim.run()
        tracer.detach()

        report = analyze_report(tracer)
        assert "lock-order cycles: 1" in report
        assert "proc-ab" in report and "proc-ba" in report
        assert "t=" in report
        assert "test_detector.py" in report  # acquisition stack frames

    def test_consistent_order_is_clean(self):
        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)
        a = Lock(sim, name="lock-A")
        b = Lock(sim, name="lock-B")
        sim.spawn(_hold_then(sim, a, b, "1"), name="p1")
        sim.spawn(_hold_then(sim, a, b, "2"), name="p2")
        sim.run()
        tracer.detach()
        assert lock_order_cycles(tracer) == []

    def test_counted_resources_do_not_create_edges(self):
        from repro.sim import Resource

        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)
        cores = Resource(sim, 4, name="cores")
        lock = Lock(sim, name="L")

        def worker():
            yield cores.acquire()
            yield lock.acquire()
            yield sim.timeout(1)
            lock.release()
            cores.release()

        sim.spawn(worker(), name="w")
        sim.run()
        tracer.detach()
        # A capacity-4 pool is not orderable: no edges either way.
        assert tracer.order_edges == {}

    def test_hold_release_is_attributed_to_the_requesting_process(self):
        """A hold's final pop runs outside any process; its release must
        still come off the requester's own hold list.  With a capacity-1
        (orderable) core and two requesters queued on it, a release that
        fell back to the global scan would drop the *other* process's
        entry and leave a phantom ``core -> lock`` edge behind."""
        from repro.sim import Resource

        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)
        core = Resource(sim, 1, name="core")
        lock = Lock(sim, name="L")

        def charge_then_lock():
            yield core.hold(5.0)
            yield lock.acquire()    # taken holding nothing
            lock.release()

        def fan_out_later():
            yield sim.timeout(1.0)  # queues behind the first hold
            yield core.hold_all(2, 5.0)

        sim.spawn(charge_then_lock(), name="first")
        sim.spawn(fan_out_later(), name="second")
        sim.run()
        tracer.detach()
        releases = [e.proc for e in tracer.lock_events if e.kind == "release" and e.label == "core"]
        assert releases == ["first", "second", "second"]
        assert tracer.order_edges == {}
        assert all(not holds for holds in tracer._holds.values())

    def test_rwlock_modes_recorded(self):
        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)
        rw = RWLock(sim, name="rw")

        def reader():
            yield rw.acquire_read()
            yield sim.timeout(1)
            rw.release_read()

        sim.spawn(reader(), name="r")
        sim.run()
        tracer.detach()
        kinds = [(e.kind, e.mode) for e in tracer.lock_events]
        assert ("acquire", "r") in kinds and ("release", "r") in kinds


class TestRaces:
    def test_unsynchronized_write_write_race_is_reported(self):
        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)
        state = {}

        def writer(name, delay):
            yield sim.timeout(delay)
            tracer.on_state_access(("kv", "s1", ("F", 1, "x")), True)
            state["x"] = name

        sim.spawn(writer("p1", 1), name="writer-1")
        sim.spawn(writer("p2", 2), name="writer-2")
        sim.run()
        tracer.detach()

        races = race_findings(tracer)
        assert len(races) == 1
        race = races[0]
        assert race["key"] == ("kv", "s1", ("F", 1, "x"))
        assert {race["first_proc"], race["second_proc"]} == {"writer-1", "writer-2"}
        report = analyze_report(tracer)
        assert "races: 1" in report
        assert "no common lock held" in report

    def test_lock_protected_writes_are_clean(self):
        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)
        lock = Lock(sim, name="klock")

        def writer(delay):
            yield sim.timeout(delay)
            yield lock.acquire()
            tracer.on_state_access(("kv", "s1", "k"), True)
            yield sim.timeout(1)
            lock.release()

        sim.spawn(writer(1), name="w1")
        sim.spawn(writer(2), name="w2")
        sim.run()
        tracer.detach()
        assert race_findings(tracer) == []

    def test_read_only_sharing_is_clean(self):
        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)

        def reader(delay):
            yield sim.timeout(delay)
            tracer.on_state_access(("kv", "s1", "ro"), False)

        sim.spawn(reader(1), name="r1")
        sim.spawn(reader(2), name="r2")
        sim.run()
        tracer.detach()
        assert race_findings(tracer) == []

    def test_single_process_private_state_is_clean(self):
        sim = Simulator()
        tracer = SimTracer()
        tracer.attach(sim)

        def owner():
            for _ in range(3):
                yield sim.timeout(1)
                tracer.on_state_access(("kv", "s1", "private"), True)

        sim.spawn(owner(), name="o")
        sim.run()
        tracer.detach()
        assert race_findings(tracer) == []


class TestInstrumentedCluster:
    def test_traced_switchfs_run_produces_events_and_no_findings(self):
        from repro.analysis import instrument_server
        from repro.bench import make_cluster, scaled_config

        config = scaled_config(num_servers=2, cores_per_server=2, seed=7)
        cluster = make_cluster("SwitchFS", config)
        tracer = SimTracer(capture_stacks=False)
        tracer.attach(cluster.sim)
        for server in cluster.servers:
            instrument_server(tracer, server)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(8):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.run_op(fs.rename("/d/f0", "/d/g0"))
        listing = cluster.run_op(fs.readdir("/d"))
        tracer.detach()

        assert len(listing["entries"]) == 8
        assert tracer.lock_events  # locks were traced
        assert tracer.state_records  # KV/changelog accesses were traced
        assert lock_order_cycles(tracer) == []
        assert race_findings(tracer) == []
        # The servers serve some lookups deliberately lock-free (atomic
        # single-key reads); those surface only under include_reads and
        # are classified, never promoted to write-write races.
        for r in race_findings(tracer, include_reads=True):
            assert r["kind"] == "read-write"

    def test_traced_readdir_lists_and_records_the_scan(self):
        from repro.analysis import instrument_server
        from repro.bench import make_cluster, scaled_config

        cluster = make_cluster("SwitchFS", scaled_config(num_servers=2, seed=7))
        tracer = SimTracer(capture_stacks=False)
        tracer.attach(cluster.sim)
        for server in cluster.servers:
            instrument_server(tracer, server)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(5):
            cluster.run_op(fs.create(f"/d/f{i}"))
        dir_id = cluster.run_op(fs.statdir("/d"))["id"]
        listing = cluster.run_op(fs.readdir("/d"))
        tracer.detach()

        assert listing["entries"] == ["f0", "f1", "f2", "f3", "f4"]
        scans = [k for k in tracer.state_records if k[0] == "kv-scan"]
        assert [k[2] for k in scans] == [("E", dir_id)]
