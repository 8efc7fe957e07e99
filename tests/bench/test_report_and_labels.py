"""ASCII charts and per-op latency labelling."""

from repro.bench import Series, ascii_chart, run_stream
from repro.core import FSConfig, SwitchFSCluster
from repro.workloads import (
    DATA_CENTER_SERVICES_MIX,
    MixStream,
    bootstrap,
    multiple_directories,
)


class TestAsciiChart:
    def make_series(self):
        s = Series("demo", "servers", "Kops/s")
        s.add("A", 2, 100.0)
        s.add("A", 8, 400.0)
        s.add("B", 2, 50.0)
        return s

    def test_bars_scale_to_peak(self):
        text = ascii_chart(self.make_series(), width=20)
        lines = text.splitlines()
        a8 = next(l for l in lines if l.startswith("A @8"))
        b2 = next(l for l in lines if l.startswith("B @2"))
        assert a8.count("█") == 20      # the peak fills the width
        assert 0 < b2.count("█") <= 3   # 50/400 of 20 chars

    def test_values_printed(self):
        text = ascii_chart(self.make_series())
        assert "400.0" in text and "50.0" in text

    def test_empty_series(self):
        s = Series("empty", "x", "y")
        assert "no numeric data" in ascii_chart(s)

    def test_non_numeric_points_skipped(self):
        s = Series("mixed", "x", "y")
        s.add("A", 1, 10.0)
        s.add("A", 2, "-")
        text = ascii_chart(s)
        assert "@1" in text and "@2" not in text


class TestPerOpLabels:
    def test_mix_stream_latency_breakdown(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=2, cores_per_server=2, seed=55))
        pop = bootstrap(cluster, multiple_directories(8, 4), warm_clients=[0])
        stream = MixStream(DATA_CENTER_SERVICES_MIX, pop, seed=55, data_latency_us=0.0)
        result = run_stream(cluster, stream, total_ops=150, inflight=8)
        ops_seen = set(result.latency._samples)
        # The dominant ops of the mix must each have their own series.
        assert {"open", "close", "stat"} <= ops_seen
        total_labeled = sum(
            result.latency.count(op) for op in ops_seen if op != "all"
        )
        assert total_labeled == result.latency.count("all") == 150
        # Directory updates cost more than cached stats on average.
        if "create" in ops_seen:
            assert result.latency.mean("create") > 0
