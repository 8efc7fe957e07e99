"""Population bootstrap and op-stream generators."""

import pytest

from repro.core import FSConfig, SwitchFSCluster
from repro.workloads import (
    BurstStream,
    CNNTrainingTrace,
    DATA_CENTER_SERVICES_MIX,
    FixedOpStream,
    MixStream,
    ThumbnailTrace,
    bootstrap,
    multiple_directories,
    single_large_directory,
    trace_population,
)


def _thunk_path(thunk):
    """Extract the target path captured in an op thunk's closure."""
    return next(
        c.cell_contents
        for c in thunk.__closure__
        if isinstance(c.cell_contents, str)
    )


def small_cluster():
    return SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2, seed=4))


class TestBootstrap:
    def test_single_large_directory_visible(self):
        cluster = small_cluster()
        bootstrap(cluster, single_large_directory(30), warm_clients=[0])
        fs = cluster.client(0)
        info = cluster.run_op(fs.statdir("/shared"))
        assert info["entry_count"] == 30
        listing = cluster.run_op(fs.readdir("/shared"))
        assert len(listing["entries"]) == 30
        # Pre-populated files are stat-able.
        assert cluster.run_op(fs.stat("/shared/pre7"))["name"] == "pre7"

    def test_multiple_directories_layout(self):
        cluster = small_cluster()
        bootstrap(cluster, multiple_directories(16, 5), warm_clients=[0])
        fs = cluster.client(0)
        for i in (0, 7, 15):
            assert cluster.run_op(fs.statdir(f"/d{i}"))["entry_count"] == 5

    def test_warm_cache_avoids_lookups(self):
        cluster = small_cluster()
        bootstrap(cluster, multiple_directories(4, 2), warm_clients=[0])
        fs = cluster.client(0)
        cluster.run_op(fs.stat("/d0/pre0"))
        assert fs.counters.get("cache_misses") == 0

    def test_ops_on_bootstrapped_namespace(self):
        """The fast-installed state must behave exactly like protocol-built
        state for subsequent operations."""
        cluster = small_cluster()
        bootstrap(cluster, single_large_directory(10), warm_clients=[0])
        fs = cluster.client(0)
        cluster.run_op(fs.create("/shared/newfile"))
        cluster.run_op(fs.delete("/shared/pre0"))
        info = cluster.run_op(fs.statdir("/shared"))
        assert info["entry_count"] == 10  # +1 -1
        listing = cluster.run_op(fs.readdir("/shared"))
        assert "newfile" in listing["entries"]
        assert "pre0" not in listing["entries"]


class TestFixedOpStream:
    def test_create_names_unique(self):
        pop = multiple_directories(4, 3)
        stream = FixedOpStream("create", pop, seed=1)
        # Collect the paths each thunk would target by inspecting closure.
        paths = set()
        for _ in range(50):
            thunk = stream.take()
            paths.add(_thunk_path(thunk))
        assert len(paths) == 50

    def test_single_dir_choice(self):
        pop = single_large_directory(10)
        stream = FixedOpStream("stat", pop, seed=1, dir_choice="single")
        for _ in range(10):
            stream.take()
        assert stream.issued == 10

    def test_unknown_op_rejected(self):
        stream = FixedOpStream("create", single_large_directory(1))
        stream.op = "bogus"
        with pytest.raises(ValueError):
            stream.next_thunk()

    def test_runs_against_cluster(self):
        cluster = small_cluster()
        pop = bootstrap(cluster, multiple_directories(4, 3), warm_clients=[0])
        fs = cluster.client(0)
        stream = FixedOpStream("create", pop, seed=2)
        for _ in range(12):
            cluster.run_op(stream.take()(fs))
        stream = FixedOpStream("stat", pop, seed=3)
        for _ in range(12):
            assert cluster.run_op(stream.take()(fs))["perm"] in (0o644, 420)


class TestMixStream:
    def test_mix_stream_runs_clean(self):
        cluster = small_cluster()
        pop = bootstrap(cluster, multiple_directories(8, 4), warm_clients=[0])
        fs = cluster.client(0)
        stream = MixStream(DATA_CENTER_SERVICES_MIX, pop, seed=5, data_latency_us=0.0)
        for _ in range(60):
            cluster.run_op(stream.take()(fs))
        assert stream.issued == 60

    def test_8020_skew(self):
        pop = multiple_directories(20, 1)
        stream = MixStream(DATA_CENTER_SERVICES_MIX, pop, seed=6)
        hot, total = 0, 400
        for _ in range(total):
            d = stream._pick_dir()
            if int(d[2:]) < 4:  # hottest 20% of 20 dirs
                hot += 1
        assert hot / total > 0.7


class TestBurstStream:
    def test_burst_groups_consecutive_ops(self):
        pop = multiple_directories(16, 1)
        stream = BurstStream(pop, burst_size=10, seed=1)
        dirs = []
        for _ in range(40):
            thunk = stream.take()
            dirs.append(_thunk_path(thunk).rsplit("/", 1)[0])
        # Within each group of 10, the directory is constant.
        for g in range(4):
            group = dirs[g * 10 : (g + 1) * 10]
            assert len(set(group)) == 1

    def test_invalid_burst_size(self):
        with pytest.raises(ValueError):
            BurstStream(multiple_directories(2, 1), burst_size=0)

    def test_runs_against_cluster(self):
        cluster = small_cluster()
        pop = bootstrap(cluster, multiple_directories(4, 1), warm_clients=[0])
        fs = cluster.client(0)
        stream = BurstStream(pop, burst_size=5, seed=2)
        for _ in range(20):
            cluster.run_op(stream.take()(fs))


class TestTraces:
    def test_cnn_trace_phases(self):
        pop = trace_population(4, 3)
        trace = CNNTrainingTrace(pop, epochs=1, data_latency_us=0.0)
        # download (2 ops/file) + epoch (3 ops/file) + removal (1 op/file)
        assert len(trace) == 12 * 6

    def test_cnn_trace_lifecycle_on_cluster(self):
        cluster = small_cluster()
        pop = bootstrap(cluster, trace_population(3, 2), warm_clients=[0])
        fs = cluster.client(0)
        trace = CNNTrainingTrace(pop, epochs=1, data_latency_us=0.0)
        for _ in range(len(trace)):
            cluster.run_op(trace.take()(fs))
        # After removal phase, all dl- files are gone again.
        listing = cluster.run_op(fs.readdir("/class0"))
        assert all(not e.startswith("dl-") for e in listing["entries"])

    def test_thumbnail_trace_creates_thumbs(self):
        cluster = small_cluster()
        pop = bootstrap(cluster, trace_population(2, 2), warm_clients=[0])
        fs = cluster.client(0)
        trace = ThumbnailTrace(pop, data_latency_us=0.0)
        for _ in range(len(trace)):
            cluster.run_op(trace.take()(fs))
        listing = cluster.run_op(fs.readdir("/class1"))
        assert any(e.startswith("thumb-") for e in listing["entries"])

    def test_data_latency_charged(self):
        cluster = small_cluster()
        pop = bootstrap(cluster, trace_population(1, 1), warm_clients=[0])
        fs = cluster.client(0)
        with_data = CNNTrainingTrace(pop, data_latency_us=500.0)
        t0 = cluster.sim.now
        for _ in range(2):  # create + write of the first file
            cluster.run_op(with_data.take()(fs))
        assert cluster.sim.now - t0 >= 500.0
