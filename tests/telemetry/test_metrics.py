"""Metrics registry: families, snapshot/merge, Prometheus rendering."""

import math

import pytest

from repro.telemetry import metrics
from repro.telemetry.metrics import MetricsRegistry, WINDOW_BUCKETS


@pytest.fixture(autouse=True)
def clean_state():
    """Each test gets pristine module flags and a fresh global registry."""
    metrics.reset_registry()
    yield
    metrics.reset_registry()
    metrics.disable()
    metrics.set_profiling(False)


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "help", engine="loop").inc()
        registry.counter("repro_test_total", "help", engine="loop").inc(2.5)
        sample = registry.snapshot()["samples"][0]
        assert sample["value"] == 3.5
        assert sample["labels"] == {"engine": "loop"}

    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.gauge("repro_depth", "help", state="pending").set(4)
        registry.gauge("repro_depth", "help", state="pending").set(1)
        assert registry.snapshot()["samples"][0]["value"] == 1.0

    def test_histogram_buckets_and_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_sizes", "help", buckets=(1, 10, 100))
        for value in (0.5, 5, 50, 500):
            histogram.observe(value)
        sample = registry.snapshot()["samples"][0]
        assert sample["buckets"] == [1, 1, 1, 1]  # one per bucket incl. +Inf
        assert sample["count"] == 4
        assert sample["sum"] == 555.5

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "help", engine="loop").inc()
        registry.counter("repro_x_total", "help", engine="counts").inc(3)
        values = {
            sample["labels"]["engine"]: sample["value"]
            for sample in registry.snapshot()["samples"]
        }
        assert values == {"loop": 1.0, "counts": 3.0}

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "help").inc()
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("repro_x_total", "help")

    def test_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h", "help", buckets=(1, 2))
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("repro_h", "help", buckets=(1, 2, 3))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad name", "help")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("repro_ok", "help", **{"bad-label": "x"})

    def test_unsorted_histogram_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted and unique"):
            MetricsRegistry().histogram("repro_h", "help", buckets=(3, 1, 2))

    def test_repeated_calls_resolve_one_series_in_any_label_order(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "help", engine="loop", stage="a")
        assert registry.counter("repro_x_total", "help", engine="loop", stage="a") is first
        assert registry.counter("repro_x_total", "help", stage="a", engine="loop") is first
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("repro_x_total", "help", engine="loop", stage="a")
        histogram = registry.histogram("repro_h", "help", buckets=(1, 2), engine="loop")
        assert registry.histogram("repro_h", "help", buckets=(1.0, 2.0), engine="loop") is histogram
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("repro_h", "help", buckets=(1, 3), engine="loop")

    def test_equal_label_values_of_different_types_stay_distinct(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "help", shard="1").inc()
        registry.counter("repro_x_total", "help", shard=1.0).inc(2)
        registry.counter("repro_x_total", "help", shard=1).inc(4)
        registry.counter("repro_x_total", "help", shard=1).inc(8)
        values = {
            sample["labels"]["shard"]: sample["value"]
            for sample in registry.snapshot()["samples"]
        }
        assert values == {"1": 13.0, "1.0": 2.0}

    def test_reset_drops_registered_series(self):
        registry = MetricsRegistry()
        stale = registry.counter("repro_x_total", "help", engine="loop")
        registry.reset()
        fresh = registry.counter("repro_x_total", "help", engine="loop")
        assert fresh is not stale
        fresh.inc()
        assert registry.snapshot()["samples"][0]["value"] == 1.0


class TestSnapshotMerge:
    def test_counters_and_histograms_add_gauges_overwrite(self):
        source = MetricsRegistry()
        source.counter("repro_c_total", "help").inc(2)
        source.gauge("repro_g", "help").set(7)
        source.histogram("repro_h", "help", buckets=(1, 10)).observe(5)

        target = MetricsRegistry()
        target.counter("repro_c_total", "help").inc(1)
        target.gauge("repro_g", "help").set(99)
        target.histogram("repro_h", "help", buckets=(1, 10)).observe(0.5)
        target.merge(source.snapshot())

        samples = {s["name"]: s for s in target.snapshot()["samples"]}
        assert samples["repro_c_total"]["value"] == 3.0
        assert samples["repro_g"]["value"] == 7.0
        assert samples["repro_h"]["buckets"] == [1, 1, 0]
        assert samples["repro_h"]["count"] == 2

    def test_merge_into_empty_registry_reconstructs(self):
        source = MetricsRegistry()
        source.histogram("repro_h", "help", buckets=(2, 4)).observe(3)
        target = MetricsRegistry()
        target.merge(source.snapshot())
        assert target.snapshot() == source.snapshot()

    def test_merge_rejects_orphan_sample(self):
        target = MetricsRegistry()
        with pytest.raises(ValueError, match="no family entry"):
            target.merge({"families": {}, "samples": [{"name": "repro_x", "value": 1}]})

    def test_snapshot_is_json_safe_and_detached(self):
        import json

        registry = MetricsRegistry()
        registry.counter("repro_c_total", "help").inc()
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        registry.counter("repro_c_total", "help").inc()
        assert snapshot["samples"][0]["value"] == 1.0  # detached copy


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "Jobs processed.", outcome="done").inc(4)
        registry.gauge("repro_queue_depth", "Queue depth.", state="pending").set(2)
        text = registry.render_prometheus()
        assert "# HELP repro_jobs_total Jobs processed.\n" in text
        assert "# TYPE repro_jobs_total counter\n" in text
        assert 'repro_jobs_total{outcome="done"} 4\n' in text
        assert "# TYPE repro_queue_depth gauge\n" in text
        assert 'repro_queue_depth{state="pending"} 2\n' in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_window_size", "Windows.", buckets=(1, 4), engine="counts"
        )
        for value in (1, 3, 100):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert 'repro_window_size_bucket{engine="counts",le="1"} 1\n' in text
        assert 'repro_window_size_bucket{engine="counts",le="4"} 2\n' in text
        assert 'repro_window_size_bucket{engine="counts",le="+Inf"} 3\n' in text
        assert 'repro_window_size_sum{engine="counts"} 104\n' in text
        assert 'repro_window_size_count{engine="counts"} 3\n' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "help", kind='we"ird\\').inc()
        text = registry.render_prometheus()
        assert 'kind="we\\"ird\\\\"' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_rendered_format_parses_back(self):
        """Every non-comment line is `name{labels} value` with a float value."""
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "help", engine="loop").inc(2)
        registry.histogram("repro_b", "help", buckets=WINDOW_BUCKETS).observe(8)
        for line in registry.render_prometheus().splitlines():
            if line.startswith("#"):
                continue
            name_part, _, value_part = line.rpartition(" ")
            assert name_part
            float(value_part.replace("+Inf", "inf"))


class TestProbeGuards:
    def test_probes_are_noops_when_disabled(self):
        metrics.record_window("loop", 16)
        metrics.record_trial("loop", 100)
        metrics.record_fault_injection("crash", 3)
        metrics.heartbeat("worker-0")
        assert metrics.registry().snapshot()["samples"] == []

    def test_probes_record_when_enabled(self):
        with metrics.telemetry_session():
            metrics.record_window("counts", 64)
            metrics.record_halving(2)
            metrics.record_drift_cap()
        samples = {s["name"]: s for s in metrics.registry().snapshot()["samples"]
                   if "labels" not in s or s["labels"].get("engine") != "loop"}
        assert samples["repro_windows_total"]["value"] == 1.0
        assert samples["repro_interactions_total"]["value"] == 64.0
        assert samples["repro_feasibility_halvings_total"]["value"] == 2.0
        assert samples["repro_drift_cap_events_total"]["value"] == 1.0

    def test_telemetry_session_restores_flags(self):
        assert not metrics.enabled() and not metrics.profiling()
        with metrics.telemetry_session(profile=True):
            assert metrics.enabled() and metrics.profiling()
        assert not metrics.enabled() and not metrics.profiling()

    def test_stage_breakdown_sorted_desc(self):
        with metrics.telemetry_session(profile=True):
            metrics.record_stage_seconds("loop", "table_apply", 0.5)
            metrics.record_stage_seconds("loop", "stop_check", 0.1)
            metrics.record_stage_seconds("loop", "table_apply", 0.25)
        rows = metrics.stage_breakdown(metrics.registry().snapshot())
        assert rows == [
            {"engine": "loop", "stage": "table_apply", "seconds": 0.75},
            {"engine": "loop", "stage": "stop_check", "seconds": 0.1},
        ]

    def test_window_buckets_cover_tau_leap_range(self):
        assert WINDOW_BUCKETS[0] == 1 and WINDOW_BUCKETS[-1] >= 10**6
        assert list(WINDOW_BUCKETS) == sorted(WINDOW_BUCKETS)
        assert not math.isinf(WINDOW_BUCKETS[-1])
