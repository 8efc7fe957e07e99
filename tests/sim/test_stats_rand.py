"""Unit and property tests for stats helpers and seeded randomness."""

import math
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import (
    AliasTable,
    Counter,
    LatencyRecorder,
    make_rng,
    percentile,
    zipf_cdf,
)


def _zipf_weights(n, theta):
    return [1.0 / ((i + 1) ** theta) for i in range(n)]


class TestPercentile:
    def test_single_sample(self):
        assert percentile([7.0], 50) == 7.0

    def test_median_of_two(self):
        assert percentile([1.0, 3.0], 50) == 2.0

    def test_extremes(self):
        xs = [5.0, 1.0, 3.0]
        assert percentile(xs, 0) == 1.0
        assert percentile(xs, 100) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200),
           st.floats(min_value=0, max_value=100))
    def test_bounded_by_min_max(self, xs, q):
        p = percentile(xs, q)
        assert min(xs) <= p <= max(xs)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100))
    def test_monotone_in_q(self, xs):
        assert percentile(xs, 10) <= percentile(xs, 50) <= percentile(xs, 99)


class TestLatencyRecorder:
    def test_mean_and_percentile(self):
        rec = LatencyRecorder()
        for v in [1.0, 2.0, 3.0]:
            rec.record(v, op="create")
        assert rec.mean("create") == 2.0
        assert rec.p(100, "create") == 3.0
        assert rec.count("create") == 3

    def test_negative_rejected(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.record(-1.0)

    def test_missing_op_raises(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.mean("nope")


def test_counter():
    c = Counter()
    for _ in range(3):
        c.inc("hit")
    assert c.get("hit") == 3
    assert c.get("miss") == 0


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7, "w")
        b = make_rng(7, "w")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_decorrelated(self):
        a = make_rng(7, "w")
        b = make_rng(7, "net")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class _CountingRng:
    """Wraps an RNG counting random() calls (the one-draw invariant)."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def random(self):
        self.calls += 1
        return self._rng.random()


class TestAliasTable:
    def test_single_item(self):
        t = AliasTable([3.0])
        rng = make_rng(0, "alias")
        assert all(t.sample(rng) == 0 for _ in range(50))

    def test_zero_weight_never_sampled(self):
        t = AliasTable([0.0, 1.0, 0.0])
        rng = make_rng(1, "alias")
        assert {t.sample(rng) for _ in range(500)} == {1}

    def test_distribution_tracks_weights(self):
        weights = [1.0, 2.0, 7.0]
        t = AliasTable(weights)
        rng = make_rng(2, "alias")
        counts = [0, 0, 0]
        n = 30_000
        for _ in range(n):
            counts[t.sample(rng)] += 1
        for c, w in zip(counts, weights):
            assert abs(c / n - w / 10.0) < 0.02

    def test_matches_weighted_choice_distribution_on_zipf(self):
        weights = _zipf_weights(64, 0.99)
        t = AliasTable(weights)
        rng = make_rng(3, "alias")
        counts = [0] * 64
        for _ in range(20_000):
            counts[t.sample(rng)] += 1
        # Rank 0 is hottest and the tail is rarely drawn.
        assert counts[0] == max(counts)
        assert counts[0] > 5 * counts[-1]

    def test_deterministic(self):
        t = AliasTable([0.5, 1.5, 3.0, 1.0])
        seq1 = [t.sample(make_rng(4, "alias")) for _ in range(1)]
        r1, r2 = make_rng(4, "alias"), make_rng(4, "alias")
        assert [t.sample(r1) for _ in range(200)] == [
            t.sample(r2) for _ in range(200)
        ]
        assert seq1[0] == t.sample(make_rng(4, "alias"))

    def test_one_uniform_per_sample(self):
        # The population engine's cross-size determinism rests on this:
        # a sample consumes exactly one uniform regardless of table size.
        for n in (1, 7, 1000):
            t = AliasTable(_zipf_weights(n, 0.99))
            rng = _CountingRng(make_rng(5, "alias"))
            for _ in range(100):
                t.sample(rng)
            assert rng.calls == 100

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            AliasTable([])
        with pytest.raises(ValueError):
            AliasTable([0.0, 0.0])
        with pytest.raises(ValueError):
            AliasTable([1.0, -0.5])


class TestZipfWeights:
    """The one Zipf table, ``zipf_cdf``: normalised cumulative weights."""

    def test_shape(self):
        cdf = zipf_cdf(10, 0.99)
        assert len(cdf) == 10 and cdf[-1] == 1.0
        steps = [cdf[0]] + [b - a for a, b in zip(cdf, cdf[1:])]
        # Rank 0 is hottest: each rank weighs less than the one before.
        assert steps == sorted(steps, reverse=True) and steps[0] > steps[-1] > 0

    def test_theta_zero_uniform(self):
        assert list(zipf_cdf(5, 0.0)) == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            zipf_cdf(0, 1.0)
        with pytest.raises(ValueError):
            zipf_cdf(5, -0.1)

    @pytest.mark.parametrize("n, theta", [(1, 0.99), (7, 1.2), (64, 0.0), (250_000, 0.99)])
    def test_matches_fsum_reference_bit_for_bit(self, n, theta):
        # The reference is the table a Python loop used to build, totalled
        # with fsum: correctly rounded, so the bytes are the same
        # on every Python version (builtin sum() of floats is compensated
        # from 3.12 on and naive before, which made the old table's bytes
        # depend on the interpreter at (250 000, 0.99)).
        weights = _zipf_weights(n, theta)
        total = math.fsum(weights)
        reference, acc = [], 0.0
        for w in weights:
            acc += w / total
            reference.append(acc)
        reference[-1] = 1.0
        assert zipf_cdf(n, theta).tobytes() == array("d", reference).tobytes()
