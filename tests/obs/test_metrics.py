"""Unit tests for the metrics substrate (`repro.obs.metrics`).

The contracts under test: the metric name catalogue is closed (typos
raise, kinds are enforced), counters are monotone, histograms expose
cumulative buckets, and both export forms — the `repro-metrics/v1` JSON
snapshot and the Prometheus-style text exposition — are deterministic
(every key and label set sorted).
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRIC_CATALOG,
    METRICS_FORMAT,
    MetricsRegistry,
)


class TestCatalogue:
    def test_unknown_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown metric"):
            registry.counter("repro_cache_hit_total")  # typo: no 's'
        with pytest.raises(ValueError, match="unknown metric"):
            registry.gauge("made_up_name")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="catalogued as a histogram"):
            registry.counter("repro_run_seconds")
        with pytest.raises(ValueError, match="catalogued as a counter"):
            registry.gauge("repro_cache_hits_total")

    def test_every_catalogued_name_is_constructible(self):
        registry = MetricsRegistry()
        accessor = {
            "counter": registry.counter,
            "gauge": registry.gauge,
            "histogram": registry.histogram,
        }
        for name, spec in METRIC_CATALOG.items():
            metric = accessor[spec["type"]](name)
            assert metric.kind == spec["type"]
            assert metric.help == spec["help"]

    def test_same_name_returns_the_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_runs_total")
        first.inc()
        assert registry.counter("repro_runs_total") is first


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        counter = MetricsRegistry().counter("repro_cache_hits_total")
        counter.inc(tier="memory")
        counter.inc(2, tier="memory")
        counter.inc(5, tier="disk")
        assert counter.value(tier="memory") == 3
        assert counter.value(tier="disk") == 5
        assert counter.value(tier="absent") == 0
        assert counter.total() == 8

    def test_negative_increment_raises(self):
        counter = MetricsRegistry().counter("repro_runs_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_thread_safety_under_contention(self):
        counter = MetricsRegistry().counter("repro_runs_total")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 4000


class TestBoundCounter:
    """``counter.labels(**labels).inc(n)`` counts what ``inc(n, **labels)`` counts."""

    LABEL_SETS = (
        {},
        {"tier": "memory"},
        {"tier": "memory", "scheme": "exact"},
        {"scheme": "probe", "tier": "disk"},
        {"outcome": "cached"},
    )

    @pytest.mark.parametrize("seed", range(5))
    def test_children_and_labelled_incs_snapshot_identically(self, seed):
        rng = random.Random(seed)
        names = ("repro_cache_hits_total", "repro_run_pairs_total", "repro_runs_total")
        ops = [
            (rng.choice(names), rng.choice(self.LABEL_SETS), rng.choice((1, 2, 0.5)))
            for _ in range(200)
        ]
        direct, bound = MetricsRegistry(), MetricsRegistry()
        children = {}
        for name, labels, amount in ops:
            direct.counter(name).inc(amount, **labels)
            key = (name, tuple(sorted(labels.items())))
            if key not in children:
                children[key] = bound.counter(name).labels(**labels)
            children[key].inc(amount)
        assert bound.snapshot() == direct.snapshot()
        assert bound.to_prometheus() == direct.to_prometheus()

    def test_binding_creates_no_sample(self):
        registry = MetricsRegistry()
        child = registry.counter("repro_cache_misses_total").labels(tier="memory")
        assert registry.samples("repro_cache_misses_total") == []
        child.inc()
        assert registry.counter("repro_cache_misses_total").value(tier="memory") == 1

    def test_a_child_cannot_decrease(self):
        child = MetricsRegistry().counter("repro_runs_total").labels()
        with pytest.raises(ValueError, match="cannot decrease"):
            child.inc(-1)


class TestGauge:
    def test_set_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_store_torn_lines")
        gauge.set(3)
        assert gauge.value() == 3
        gauge.set(0)
        assert gauge.value() == 0


class TestHistogram:
    def test_cumulative_buckets_and_inf(self):
        histogram = MetricsRegistry().histogram("repro_run_seconds")
        assert histogram.buckets == DEFAULT_BUCKETS
        histogram.observe(0.0005)   # below the first bound
        histogram.observe(0.3)      # lands in the 0.5 bucket
        histogram.observe(99.0)     # above every bound: +Inf only
        (sample,) = histogram.snapshot_samples()
        buckets = sample["buckets"]
        assert buckets["0.001"] == 1
        assert buckets["0.25"] == 1
        assert buckets["0.5"] == 2
        assert buckets["10"] == 2       # 99.0 overflows every bound
        assert buckets["+Inf"] == sample["count"] == 3
        assert sample["sum"] == pytest.approx(99.3005)
        assert histogram.count() == 3

    def test_integral_bounds_drop_the_point_zero(self):
        histogram = MetricsRegistry().histogram("repro_task_seconds")
        histogram.observe(0.1)
        (sample,) = histogram.snapshot_samples()
        assert "1" in sample["buckets"] and "1.0" not in sample["buckets"]
        assert "2.5" in sample["buckets"]


class TestSnapshot:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("repro_cache_hits_total").inc(3, tier="memory")
        registry.counter("repro_cache_hits_total").inc(1, tier="disk")
        registry.gauge("repro_store_torn_lines").set(2)
        registry.histogram("repro_run_seconds").observe(0.004)
        return registry

    def test_format_and_sorted_keys(self):
        snapshot = self._populated().snapshot()
        assert snapshot["format"] == METRICS_FORMAT
        names = list(snapshot["metrics"])
        assert names == sorted(names)
        hits = snapshot["metrics"]["repro_cache_hits_total"]
        assert hits["type"] == "counter"
        # Label sets in sorted order: disk before memory.
        assert hits["samples"] == [
            {"labels": {"tier": "disk"}, "value": 1},
            {"labels": {"tier": "memory"}, "value": 3},
        ]

    def test_two_identical_registries_serialise_identically(self):
        first = json.dumps(self._populated().snapshot(), sort_keys=True)
        second = json.dumps(self._populated().snapshot(), sort_keys=True)
        assert first == second

    def test_prometheus_exposition(self):
        text = self._populated().to_prometheus()
        lines = text.splitlines()
        assert "# HELP repro_cache_hits_total " + (
            METRIC_CATALOG["repro_cache_hits_total"]["help"]
        ) in lines
        assert "# TYPE repro_cache_hits_total counter" in lines
        assert 'repro_cache_hits_total{tier="disk"} 1' in lines
        assert 'repro_cache_hits_total{tier="memory"} 3' in lines
        assert "# TYPE repro_store_torn_lines gauge" in lines
        assert 'repro_run_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_run_seconds_count 1" in lines
        assert text.endswith("\n")

    def test_empty_registry_exposition_is_empty(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_write_json_publishes_snapshot(self, tmp_path):
        registry = self._populated()
        target = tmp_path / "metrics.json"
        registry.write_json(target)
        payload = json.loads(target.read_text())
        assert payload == json.loads(
            json.dumps(registry.snapshot(), sort_keys=True)
        )
        # No tmp-file debris from the atomic publish.
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]
