"""Metrics registry: counter/gauge/histogram semantics and deterministic merging."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ObservabilityError
from repro.obs import Observation
from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    active_registry,
    counter_add,
    gauge_max,
    gauge_set,
    metrics_active,
    observe_hist,
)


class TestDisabledPath:
    def test_inactive_by_default(self):
        assert not metrics_active()
        assert active_registry() is None

    def test_helpers_are_noops_when_inactive(self):
        counter_add("sampler.shots", 100)
        gauge_set("executor.chunks_in_flight", 3)
        gauge_max("reduction.tree_depth", 2)
        observe_hist("phase.sample", 0.1)  # nothing to assert: no crash


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.counter_add("sampler.jobs")
        registry.counter_add("sampler.jobs", 4)
        assert registry.counters == {"sampler.jobs": 5}

    def test_gauge_max_keeps_peak(self):
        registry = MetricsRegistry()
        registry.gauge_max("reduction.tree_depth", 3)
        registry.gauge_max("reduction.tree_depth", 1)
        registry.gauge_max("reduction.tree_depth", 5)
        assert registry.gauges["reduction.tree_depth"] == 5.0

    def test_snapshot_is_key_sorted_and_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter_add("z.last")
        registry.counter_add("a.first")
        registry.observe("phase.sample", 0.01)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a.first", "z.last"]
        json.loads(json.dumps(snapshot))

    def test_helpers_reach_active_registry(self):
        with Observation() as observation:
            counter_add("engine.runs")
            gauge_max("executor.chunks_in_flight", 7)
            observe_hist("phase.ideal", 0.002)
        snapshot = observation.registry.snapshot()
        assert snapshot["counters"] == {"engine.runs": 1}
        assert snapshot["gauges"] == {"executor.chunks_in_flight": 7.0}
        assert snapshot["histograms"]["phase.ideal"]["count"] == 1


class TestMetricsScope:
    def test_nested_scopes_fold_once_into_each_enclosing_one(self):
        lifetime = MetricsRegistry()
        with MetricsScope() as outer:
            counter_add("engine.runs")
            with MetricsScope(lifetime) as inner:
                counter_add("engine.jobs", 3)
                observe_hist("phase.sample", 0.5)
            assert active_registry() is outer.registry
        assert inner.snapshot["counters"] == {"engine.jobs": 3}
        assert outer.registry.counters == {"engine.runs": 1, "engine.jobs": 3}
        assert outer.registry.histograms["phase.sample"].count == 1
        assert lifetime.counters == {"engine.jobs": 3}
        assert not metrics_active()

    def test_an_exception_still_restores_and_folds(self):
        with MetricsScope() as outer:
            with pytest.raises(RuntimeError):
                with MetricsScope():
                    counter_add("engine.jobs")
                    raise RuntimeError("boom")
            assert active_registry() is outer.registry
        assert outer.registry.counters == {"engine.jobs": 1}

    def test_a_scope_counts_only_its_own_thread(self):
        def other_thread():
            seen.append(active_registry())
            with MetricsScope():
                counter_add("broker.chunks_completed")

        seen = []
        with MetricsScope() as scope:
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            counter_add("engine.jobs")
            assert active_registry() is scope.registry
        assert seen == [None]
        assert scope.registry.counters == {"engine.jobs": 1}


class TestHistogram:
    def test_log_bucket_assignment(self):
        histogram = Histogram()
        histogram.observe(5e-7)   # below the first decade bound (1e-6)
        histogram.observe(0.5)    # within (0.1, 1]
        histogram.observe(5000.0)  # beyond the last bound -> overflow
        snapshot = histogram.snapshot()
        assert snapshot["buckets"]["le:1e-06"] == 1
        assert snapshot["buckets"]["le:1"] == 1
        assert snapshot["buckets"]["le:inf"] == 1
        assert snapshot["count"] == 3
        assert snapshot["min"] == 5e-7
        assert snapshot["max"] == 5000.0

    def test_bucket_labels_cover_all_bounds(self):
        labels = set(Histogram().snapshot()["buckets"])
        assert labels == {f"le:{bound:g}" for bound in HISTOGRAM_BOUNDS} | {"le:inf"}

    def test_merge_adds_buckets_and_folds_extremes(self):
        left, right = Histogram(), Histogram()
        left.observe(0.2)
        right.observe(0.3)
        right.observe(7.0)
        left.merge_snapshot(right.snapshot())
        snapshot = left.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["sum"] == pytest.approx(7.5)
        assert snapshot["min"] == 0.2
        assert snapshot["max"] == 7.0
        assert snapshot["buckets"]["le:1"] == 2
        assert snapshot["buckets"]["le:10"] == 1


class TestMerge:
    def _worker_snapshots(self):
        """Three fake worker payloads with overlapping names."""
        snapshots = []
        for index in range(3):
            registry = MetricsRegistry()
            registry.counter_add("sampler.chunks", index + 1)
            registry.counter_add(f"cache.sample.{'hits' if index else 'misses'}")
            registry.gauge_max("executor.chunks_in_flight", index * 2)
            registry.observe("phase.sample", 0.1 * (index + 1))
            snapshots.append(registry.snapshot())
        return snapshots

    def test_merge_is_order_independent(self):
        """Counters, gauges and histogram *bucket counts* are exactly
        order-independent (integer/max folds); histogram float sums are only
        approximately so and carry no determinism contract."""
        import itertools

        baseline = None
        for order in itertools.permutations(self._worker_snapshots()):
            merged = MetricsRegistry()
            for snapshot in order:
                merged.merge_snapshot(snapshot)
            snapshot = merged.snapshot()
            exact = (
                snapshot["counters"],
                snapshot["gauges"],
                {name: state["buckets"] for name, state in snapshot["histograms"].items()},
            )
            if baseline is None:
                baseline = exact
            else:
                assert exact == baseline

    def test_merged_counters_equal_serial_totals(self):
        merged = MetricsRegistry()
        for snapshot in self._worker_snapshots():
            merged.merge_snapshot(snapshot)
        assert merged.counters == {
            "sampler.chunks": 6,
            "cache.sample.misses": 1,
            "cache.sample.hits": 2,
        }
        assert merged.gauges == {"executor.chunks_in_flight": 4.0}
        assert merged.histograms["phase.sample"].count == 3

    def test_merge_rejects_non_dict(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().merge_snapshot(["not", "a", "dict"])


class TestRows:
    def test_rows_are_uniform_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter_add("engine.jobs", 4)
        registry.gauge_max("reduction.tree_depth", 2)
        registry.observe("phase.hammer", 0.3)
        rows = registry.as_rows()
        assert [row["kind"] for row in rows] == ["counter", "gauge", "histogram"]
        # format_table derives columns from the first row: keys must be uniform
        assert all(set(row) == set(rows[0]) for row in rows)
        histogram_row = rows[-1]
        assert histogram_row["count"] == 1
        assert histogram_row["value"] == pytest.approx(0.3)
