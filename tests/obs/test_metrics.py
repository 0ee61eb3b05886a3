"""Unit tests for the metrics registry and its Prometheus text exposition."""

import re

import pytest

from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)

#: ``name{label="v",...} value`` — every sample line must match.
SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\+Inf|-?[0-9.e+-]+)$'
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("coin_sheds_total")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3
        assert counter.total() == 3

    def test_labels_partition_the_series(self):
        counter = Counter("coin_sheds_total")
        counter.inc(reason="queue_full")
        counter.inc(reason="queue_full")
        counter.inc(reason="draining")
        assert counter.value(reason="queue_full") == 2
        assert counter.value(reason="draining") == 1
        assert counter.total() == 3
        lines = counter.collect()
        assert 'coin_sheds_total{reason="draining"} 1' in lines
        assert 'coin_sheds_total{reason="queue_full"} 2' in lines

    def test_counters_never_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("coin_active")
        gauge.set(4)
        gauge.inc()
        gauge.inc(-2)
        assert gauge.value() == 3

    def test_function_backed_gauge(self):
        items = [1, 2, 3]
        gauge = Gauge("coin_queue_depth", function=lambda: len(items))
        assert gauge.value() == 3
        items.pop()
        assert gauge.value() == 2
        assert gauge.collect() == ["coin_queue_depth 2"]
        assert gauge.snapshot() == 2.0

    def test_function_errors_scrape_as_zero(self):
        gauge = Gauge("g", function=lambda: 1 / 0)
        assert gauge.value() == 0.0
        assert gauge.collect() == ["g 0"]


class TestHistogram:
    def test_bucket_assignment_and_count(self):
        histogram = Histogram("coin_latency", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.sum_observed() == 105.0

    def test_quantiles_interpolate_within_buckets(self):
        histogram = Histogram("coin_latency", buckets=(1.0, 2.0, 4.0))
        # 10 observations in (1, 2]: the median sits mid-bucket.
        for _ in range(10):
            histogram.observe(1.5)
        assert histogram.quantile(0.5) == pytest.approx(1.5, abs=0.01)
        assert histogram.quantile(1.0) == pytest.approx(2.0)

    def test_tail_is_clamped_to_the_top_bound(self):
        histogram = Histogram("coin_latency", buckets=(1.0, 2.0))
        histogram.observe(50.0)
        assert histogram.quantile(0.99) == 2.0

    def test_empty_histogram_has_no_quantiles(self):
        histogram = Histogram("coin_latency", buckets=(1.0,))
        assert histogram.quantile(0.5) is None
        assert histogram.count() == 0

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0,)).quantile(1.5)

    def test_at_least_one_bucket_required(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_exposition_buckets_are_cumulative(self):
        histogram = Histogram("coin_latency", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        lines = histogram.collect()
        assert 'coin_latency_bucket{le="1"} 1' in lines
        assert 'coin_latency_bucket{le="2"} 2' in lines
        assert 'coin_latency_bucket{le="4"} 3' in lines
        assert 'coin_latency_bucket{le="+Inf"} 4' in lines
        assert "coin_latency_sum 105" in lines
        assert "coin_latency_count 4" in lines

    def test_snapshot_carries_estimated_percentiles(self):
        histogram = Histogram("coin_latency")
        for _ in range(100):
            histogram.observe(0.003)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 100
        assert 0.0025 <= snapshot["p50"] <= 0.005
        assert 0.0025 <= snapshot["p99"] <= 0.005

    def test_default_buckets_cover_cache_hits_to_deadlines(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 5.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("statements_total", "statements executed")
        second = registry.counter("statements_total")
        assert first is second
        assert len(registry) == 1

    def test_namespace_is_prefixed_once(self):
        registry = MetricsRegistry(namespace="coin")
        assert registry.counter("sheds_total").name == "coin_sheds_total"
        assert registry.counter("coin_sheds_total").name == "coin_sheds_total"
        assert len(registry) == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("sheds_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("sheds_total")

    def test_get_resolves_unqualified_names(self):
        registry = MetricsRegistry()
        counter = registry.counter("sheds_total")
        assert registry.get("sheds_total") is counter
        assert registry.get("coin_sheds_total") is counter
        assert registry.get("missing") is None

    def test_render_emits_well_formed_exposition(self):
        registry = MetricsRegistry()
        registry.counter("statements_total", "statements executed").inc(3)
        registry.gauge("active", "in-flight statements").set(1)
        histogram = registry.histogram("statement_seconds", "latency")
        histogram.observe(0.004)
        text = registry.render()
        assert text.endswith("\n")
        assert "# HELP coin_statements_total statements executed" in text
        assert "# TYPE coin_statements_total counter" in text
        assert "# TYPE coin_statement_seconds histogram" in text
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("errors_total").inc(kind='Say "hi"\nthere\\')
        rendered = registry.render()
        assert r'kind="Say \"hi\"\nthere\\"' in rendered

    def test_snapshot_is_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("statements_total").inc(2)
        registry.gauge("active", function=lambda: 7)
        registry.histogram("statement_seconds").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot["coin_statements_total"] == 2
        assert snapshot["coin_active"] == 7.0
        assert snapshot["coin_statement_seconds"]["count"] == 1
