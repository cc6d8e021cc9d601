"""Tests for the metrics registry and its exports."""

import json
import math

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestPrimitives:
    def test_counter_only_goes_up(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.dec(4)
        g.inc(1)
        assert g.value == 7

    def test_histogram_buckets_cumulative(self):
        h = Histogram(buckets=(1, 5, 10))
        for v in (0.5, 3, 7, 100):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(110.5)
        cum = h.cumulative()
        assert cum == [(1.0, 1), (5.0, 2), (10.0, 3), (math.inf, 4)]
        assert h.mean == pytest.approx(110.5 / 4)

    def test_histogram_edge_values_and_nan(self):
        """A value on an edge counts in that edge's bucket (``le``); NaN
        is below no edge, so only +Inf holds it."""
        h = Histogram(buckets=(1, 5))
        for v in (1.0, 5.0, -math.inf, math.inf, math.nan):
            h.observe(v)
        assert h.bucket_counts == [2, 1, 2]

    def test_histogram_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())


class TestRegistry:
    def test_get_or_create_same_child(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", outcome="ok")
        b = reg.counter("hits_total", outcome="ok")
        a.inc()
        assert b.value == 1
        # A different label set is a different child.
        reg.counter("hits_total", outcome="err").inc(5)
        assert a.value == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests", code=200).inc(3)
        reg.gauge("depth", "queue depth").set(2)
        reg.histogram("rtt_seconds", "rtt", buckets=(0.1, 1.0)).observe(0.5)
        text = reg.to_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{code="200"} 3' in text
        assert "depth 2" in text
        assert 'rtt_seconds_bucket{le="0.1"} 0' in text
        assert 'rtt_seconds_bucket{le="1"} 1' in text
        assert 'rtt_seconds_bucket{le="+Inf"} 1' in text
        assert "rtt_seconds_sum 0.5" in text
        assert "rtt_seconds_count 1" in text
        assert text.endswith("\n")

    def test_json_snapshot_is_serializable(self):
        reg = MetricsRegistry()
        reg.counter("a_total", network=1).inc()
        reg.histogram("h", buckets=(1,)).observe(2)
        snap = json.loads(reg.dumps())
        assert snap["a_total"]["type"] == "counter"
        assert snap["a_total"]["series"][0]["labels"] == {"network": "1"}
        hist = snap["h"]["series"][0]
        assert hist["count"] == 1
        assert hist["buckets"][-1]["le"] == "+Inf"

    def test_write_prometheus(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        path = tmp_path / "snap.prom"
        reg.write_prometheus(str(path))
        assert "a_total 1" in path.read_text()

    def test_empty_registry_exports_empty(self):
        reg = MetricsRegistry()
        assert reg.to_prometheus() == ""
        assert reg.to_json() == {}


class TestHistogramQuantile:
    def test_empty_histogram_is_nan(self):
        h = Histogram(buckets=(1.0, 2.0))
        assert math.isnan(h.quantile(0.5))

    def test_rejects_out_of_range_q(self):
        h = Histogram(buckets=(1.0,))
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_linear_interpolation_within_bucket(self):
        h = Histogram(buckets=(1.0, 2.0, 3.0))
        for v in (0.5, 1.5, 1.6, 2.5):
            h.observe(v)
        # Rank 2 of 4 lands at the top of the (1, 2] bucket: 3 of 4
        # observations are <= 2, so the median interpolates inside it.
        assert h.quantile(0.5) == pytest.approx(1.0 + (2.0 - 1.0) / 2.0)
        assert h.quantile(0.0) == pytest.approx(0.0)
        assert h.quantile(1.0) == pytest.approx(3.0)

    def test_single_bucket_everything_interpolates_from_zero(self):
        h = Histogram(buckets=(4.0,))
        for _ in range(4):
            h.observe(1.0)
        assert h.quantile(0.5) == pytest.approx(2.0)

    def test_negative_low_edge_extends_interpolation_base(self):
        h = Histogram(buckets=(-1.0, 1.0))
        h.observe(-2.0)  # lands in the (-inf, -1] bucket
        assert h.quantile(1.0) == pytest.approx(-1.0)

    def test_empty_leading_bucket_returns_its_edge_at_q_zero(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.5)
        assert h.quantile(0.0) == pytest.approx(1.0)

    def test_rank_in_inf_bucket_clamps_to_top_edge(self):
        h = Histogram(buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == pytest.approx(1.0)

    def test_quantiles_are_monotone(self):
        h = Histogram()
        for i in range(50):
            h.observe(0.001 * (i + 1) * 7 % 30)
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.95, 0.99)]
        assert qs == sorted(qs)
