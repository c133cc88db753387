"""Tests for the thread-safe metrics registry (counters, gauges, histograms)."""

from __future__ import annotations

import itertools
import sys
import threading

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("t.requests")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("t.requests")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_float_increments_accumulate(self):
        counter = MetricsRegistry().counter("t.seconds")
        counter.inc(0.25)
        counter.inc(0.75)
        assert counter.value == pytest.approx(1.0)

    def test_racing_unit_and_bulk_increments_stay_exact_without_a_lock(self):
        """A unit ``inc()`` is a lock-free tick; a thread switch between any
        two bytecodes must still lose none of them, nor any ``inc(n)``."""
        counter = MetricsRegistry().counter("t.requests")
        threads, rounds = 8, 20_000
        start = threading.Barrier(threads)

        def worker(index: int) -> None:
            start.wait()
            for i in range(rounds):
                if (i + index) % 4:
                    counter.inc()
                else:
                    counter.inc(3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(k,)) for k in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        # Each thread: three quarters of its rounds tick once, one quarter adds 3.
        assert counter.value == threads * (rounds * 3 // 4 + 3 * rounds // 4)

    def test_reset_zeroes_a_ticked_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("t.requests")
        counter.inc()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 4.5
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert counter.value == 1

    def test_ticks_reads_a_count_without_advancing_it(self):
        count = itertools.count()
        assert obs_metrics.ticks(count) == 0
        next(count), next(count)
        assert obs_metrics.ticks(count) == obs_metrics.ticks(count) == 2


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("t.resident")
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(12.0)
        assert gauge.value == pytest.approx(3.0)

    def test_can_go_negative(self):
        gauge = MetricsRegistry().gauge("t.delta")
        gauge.dec(2.0)
        assert gauge.value == pytest.approx(-2.0)


class TestHistogram:
    def test_basic_moments(self):
        hist = MetricsRegistry().histogram("t.seconds")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(6.0)
        assert hist.mean == pytest.approx(2.0)
        assert hist.min == pytest.approx(1.0)
        assert hist.max == pytest.approx(3.0)

    def test_empty_histogram_reports_zeros(self):
        hist = MetricsRegistry().histogram("t.seconds")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.min == 0.0
        assert hist.max == 0.0
        assert hist.percentile(0.5) == 0.0

    def test_constant_distribution_percentiles_are_exact(self):
        # min == max clamps the winning bucket to a single point.
        hist = MetricsRegistry().histogram("t.seconds")
        for _ in range(100):
            hist.observe(0.5)
        assert hist.percentile(0.50) == pytest.approx(0.5)
        assert hist.percentile(0.99) == pytest.approx(0.5)

    def test_bimodal_distribution_separates_p50_from_p99(self):
        # 90% fast (1 ms), 10% slow (1 s): p50 must sit near the fast mode
        # and p99 near the slow one.  Log buckets are a quarter-decade wide,
        # so "near" means within a small constant factor.
        hist = MetricsRegistry().histogram("t.seconds")
        for _ in range(90):
            hist.observe(0.001)
        for _ in range(10):
            hist.observe(1.0)
        assert hist.percentile(0.50) == pytest.approx(0.001, rel=1.0)
        assert hist.percentile(0.99) == pytest.approx(1.0, rel=1.0)

    def test_percentile_fraction_validated(self):
        hist = MetricsRegistry().histogram("t.seconds")
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_summary_shape(self):
        hist = MetricsRegistry().histogram("t.seconds")
        hist.observe(2.0)
        summary = hist.summary()
        assert set(summary) == {"count", "sum", "mean", "min", "max", "p50", "p95", "p99"}
        assert summary["count"] == 1

    def test_default_buckets_strictly_increasing(self):
        assert all(a < b for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))

    def test_concurrent_observes_lose_nothing(self):
        hist = MetricsRegistry().histogram("t.seconds")

        def worker():
            for _ in range(500):
                hist.observe(0.01)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.count == 2000
        assert hist.sum == pytest.approx(20.0)


class TestRegistry:
    def test_get_or_create_returns_the_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("t.a") is registry.counter("t.a")

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        a = registry.counter("t.a", svc=0)
        b = registry.counter("t.a", svc=1)
        assert a is not b
        a.inc()
        assert b.value == 0

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        assert registry.counter("t.a", x=1, y=2) is registry.counter("t.a", y=2, x=1)

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("t.a")
        with pytest.raises(TypeError):
            registry.gauge("t.a")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_full_name_renders_labels(self):
        counter = MetricsRegistry().counter("t.a", svc=3)
        assert counter.full_name == "t.a{svc=3}"

    def test_snapshot_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("t.requests").inc(7)
        registry.gauge("t.resident").set(42.0)
        registry.histogram("t.seconds").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"]["t.requests"] == 7
        assert snap["gauges"]["t.resident"] == pytest.approx(42.0)
        assert snap["histograms"]["t.seconds"]["count"] == 1

    def test_snapshot_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc()
        registry.counter("engine.batches").inc()
        snap = registry.snapshot("serve.")
        assert "serve.requests" in snap["counters"]
        assert "engine.batches" not in snap["counters"]

    def test_snapshot_label_filter_and_strip(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests", svc=0).inc(2)
        registry.counter("serve.requests", svc=1).inc(9)
        snap = registry.snapshot("serve.", labels={"svc": 0}, strip_labels=True)
        assert snap["counters"] == {"serve.requests": 2}

    def test_strip_keeps_the_labels_not_filtered_on(self):
        registry = MetricsRegistry()
        registry.counter("serve.shed", reason="deadline", svc=0).inc(3)
        registry.counter("serve.shed", reason="overloaded", svc=0).inc()
        registry.counter("serve.shed", reason="deadline", svc=1).inc(7)
        snap = registry.snapshot("serve.", labels={"svc": 0}, strip_labels=True)
        assert snap["counters"] == {
            "serve.shed{reason=deadline}": 3,
            "serve.shed{reason=overloaded}": 1,
        }

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("t.a")
        hist = registry.histogram("t.h")
        counter.inc(5)
        hist.observe(1.0)
        registry.reset()
        # Live references stay valid — reset does not replace the objects.
        assert counter is registry.counter("t.a")
        assert counter.value == 0
        assert hist.count == 0
        assert hist.sum == 0.0


class TestEnabledSwitch:
    def test_disabled_mutations_are_noops(self):
        registry = MetricsRegistry()
        counter = registry.counter("t.a")
        gauge = registry.gauge("t.g")
        hist = registry.histogram("t.h")
        obs_metrics.set_enabled(False)
        try:
            counter.inc()
            counter.inc(3)
            gauge.set(5.0)
            gauge.inc()
            hist.observe(1.0)
        finally:
            obs_metrics.set_enabled(True)
        assert counter.value == 0
        assert gauge.value == 0.0
        assert hist.count == 0
        assert obs_metrics.enabled()

    def test_module_shortcuts_hit_the_default_registry(self):
        counter = obs_metrics.counter("t.shortcut", test="metrics")
        before = counter.value
        counter.inc()
        snap = obs_metrics.snapshot("t.shortcut")
        assert snap["counters"]["t.shortcut{test=metrics}"] == before + 1


class TestKinds:
    def test_metric_classes_exported(self):
        registry = MetricsRegistry()
        assert isinstance(registry.counter("t.c"), Counter)
        assert isinstance(registry.gauge("t.g"), Gauge)
        assert isinstance(registry.histogram("t.h"), Histogram)
