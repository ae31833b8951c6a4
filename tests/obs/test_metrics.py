"""Tests for repro.obs.metrics."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry


class TestCounter:
    def test_inc_and_reset(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(41)
        assert c.value == 42
        c.reset()
        assert c.value == 0

    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_inc_convenience(self):
        reg = MetricsRegistry()
        reg.inc("a.b", 5)
        reg.inc("a.b")
        assert reg.counter("a.b").value == 6

    def test_inc_many_skips_zeros(self):
        reg = MetricsRegistry()
        reg.inc_many("adjacency.hybrid", {"inserts": 3, "rotations": 0})
        snap = reg.snapshot()
        assert snap["counters"] == {"adjacency.hybrid.inserts": 3}


class TestGauge:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        reg.set("mem", 100.0)
        reg.set("mem", 250.0)
        assert reg.gauge("mem").value == 250.0


class TestHistogram:
    def test_observe_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("lat", v)
        s = reg.histogram("lat").summary()
        assert s["count"] == 3 and s["total"] == 6.0 and s["mean"] == 2.0
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert 1.0 <= s["p50"] <= s["p99"] <= 3.0
        # The summary carries no bucket list; the counts stay on the
        # histogram, where the quantile interpolation reads them.
        assert set(s) == {"count", "total", "mean", "min", "max", "p50", "p99"}
        assert sum(reg.histogram("lat").buckets) == 3

    def test_empty_summary(self):
        # Well-defined zeros, never ±inf sentinels or None: the summary
        # feeds straight into JSON artifacts and arithmetic.
        reg = MetricsRegistry()
        s = reg.histogram("empty").summary()
        assert s == {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
        assert reg.histogram("empty").mean == 0.0
        assert reg.histogram("empty").quantile(0.5) == 0.0


class TestHistogramQuantiles:
    """Interpolated quantiles pinned on known distributions.

    The quantile estimator interpolates linearly between bucket bounds;
    on a distribution spread across buckets (uniform below) the estimate
    lands within a few percent of the exact answer, while a point mass
    inside one bucket can be off by up to that bucket's width (factor √2,
    ~41%) — still strictly better than upper-bound snapping, which adds
    a whole-bucket bias even on smooth distributions.
    """

    def test_uniform_distribution_p50_p99(self):
        h = MetricsRegistry().histogram("u")
        for v in range(1, 10_001):
            h.observe(float(v))
        assert h.quantile(0.5) == pytest.approx(5000.0, rel=0.05)
        assert h.quantile(0.99) == pytest.approx(9900.0, rel=0.05)

    def test_constant_distribution_is_exact(self):
        h = MetricsRegistry().histogram("c")
        for _ in range(100):
            h.observe(7.0)
        # Every observation in one bucket, clamped to observed extremes.
        assert h.quantile(0.5) == 7.0
        assert h.quantile(0.99) == 7.0

    def test_two_point_distribution(self):
        h = MetricsRegistry().histogram("b")
        for _ in range(99):
            h.observe(1.0)
        h.observe(1000.0)
        assert h.quantile(0.5) == pytest.approx(1.0, rel=0.25)
        assert h.quantile(0.999) == pytest.approx(1000.0, rel=0.05)

    def test_exponential_like_ladder(self):
        h = MetricsRegistry().histogram("e")
        for k in range(10):  # 512 ones, 256 twos, ... one 512
            for _ in range(2 ** (9 - k)):
                h.observe(float(2**k))
        # 1023 samples, 512 of them equal 1.0 -> p50 sits in 1.0's bucket.
        assert h.quantile(0.5) == pytest.approx(1.0, rel=0.25)
        # rank 0.99*1023 falls in the 64-mass (cum 1008 < 1012.8 <= 1016)
        assert h.quantile(0.99) == pytest.approx(64.0, rel=0.25)

    def test_quantiles_monotone_and_clamped(self):
        h = MetricsRegistry().histogram("m")
        for v in (0.001, 0.01, 0.1, 1.0, 10.0):
            h.observe(v)
        qs = [h.quantile(q) for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0)]
        assert qs == sorted(qs)
        assert qs[0] >= 0.001 and qs[-1] <= 10.0


class TestRegistry:
    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.inc("c", 3)
        reg.set("g", 1.5)
        reg.observe("h", 2.0)
        json.dumps(reg.snapshot())

    def test_top_counters_ranked_and_nonzero(self):
        reg = MetricsRegistry()
        reg.inc("small", 1)
        reg.inc("big", 100)
        reg.inc("mid", 10)
        reg.counter("zero")
        assert reg.top_counters(2) == [("big", 100), ("mid", 10)]
        assert ("zero", 0) not in reg.top_counters(10)

    def test_reset_zeroes_but_keeps_names(self):
        reg = MetricsRegistry()
        reg.inc("c", 3)
        reg.set("g", 1.0)
        reg.observe("h", 1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 0}
        assert snap["gauges"] == {"g": 0.0}
        assert snap["histograms"]["h"]["count"] == 0
