"""Integration: a real encode+train+scan run feeds spans and metrics.

The unit tests poke the primitives; these run the actual instrumented hot
paths (one encode worker, so every span lands in this process) and check
what comes out the other side — in particular that the Chrome trace dump
round-trips with consistent nesting, the satellite the ``repro obs dump``
CLI relies on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Dataset, Estimator
from repro.obs import default_tracer, metrics_snapshot
from repro.obs import trace as obs_trace


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One encode+train+scan run with a freshly cleared tracer."""
    tmp = tmp_path_factory.mktemp("obs-run")
    rng = np.random.default_rng(0)
    features = rng.normal(size=(120, 6))
    features[rng.random(features.shape) < 0.5] = 0.0
    labels = (features[:, 0] > 0).astype(np.float64)
    obs_trace.clear()
    dataset = Dataset.create(
        tmp / "shards", features, labels,
        scheme="TOC", batch_size=30, workers=1, seed=0,
    )
    Estimator("logreg", scheme="TOC", epochs=2, workers=1).fit(dataset)
    result = dataset.scan(where="c0 >= 0", agg="count")
    return dataset, result, default_tracer().spans()


class TestSpansFromTheRealPipeline:
    def test_expected_span_names_present(self, traced_run):
        _, _, spans = traced_run
        names = {record["name"] for record in spans}
        assert {"engine.encode", "engine.encode.batch", "engine.train",
                "engine.train.shard", "exec.scan"} <= names

    def test_batch_spans_nest_under_the_encode_span(self, traced_run):
        _, _, spans = traced_run
        by_id = {record["id"]: record for record in spans}
        batches = [r for r in spans if r["name"] == "engine.encode.batch"]
        assert len(batches) == 4
        for record in batches:
            assert by_id[record["parent"]]["name"] == "engine.encode"
            assert record["labels"]["scheme"] == "TOC"


class TestChromeRoundTrip:
    def test_events_carry_the_required_fields(self, traced_run):
        payload = json.loads(default_tracer().dump_chrome())
        events = payload["traceEvents"]
        assert events
        for event in events:
            for key in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert key in event
            assert event["ph"] == "X"

    def test_nesting_is_consistent_per_thread(self, traced_run):
        """Every depth>0 event sits inside a shallower event on its thread."""
        events = json.loads(default_tracer().dump_chrome())["traceEvents"]
        by_tid: dict = {}
        for event in events:
            by_tid.setdefault(event["tid"], []).append(event)
        nested = 0
        for siblings in by_tid.values():
            for event in siblings:
                depth = event["args"]["depth"]
                if depth == 0:
                    continue
                nested += 1
                eps = 1e-3  # µs slack for float rounding
                assert any(
                    other["args"]["depth"] == depth - 1
                    and other["ts"] - eps <= event["ts"]
                    and event["ts"] + event["dur"] <= other["ts"] + other["dur"] + eps
                    for other in siblings
                    if other is not event
                ), f"no enclosing parent for {event['name']} at depth {depth}"
        assert nested > 0  # the pipeline genuinely produced nested spans


class TestMetricsFromTheRealPipeline:
    def test_engine_and_scan_counters_advance(self, traced_run):
        dataset, result, _ = traced_run
        snap = metrics_snapshot("engine.")
        assert snap["counters"]["engine.encode.batches"] >= 4
        assert snap["counters"]["engine.train.epochs"] >= 2
        assert snap["histograms"]["engine.encode.batch_seconds"]["count"] >= 4
        scan = metrics_snapshot("exec.scan")["counters"]
        assert scan["exec.scan.scans"] >= 1
        assert scan["exec.scan.rows_scanned"] >= 120
        assert scan["exec.scan.rows_matched"] >= result.n_rows_matched

    def test_dataset_stats_carries_the_snapshot_on_request(self, traced_run):
        dataset, _, _ = traced_run
        assert dataset.stats().metrics is None
        stats = dataset.stats(metrics=True)
        assert "engine.encode.batches" in stats.metrics["counters"]
        assert "metrics" in stats.as_dict()
        assert "metrics" not in dataset.stats().as_dict()
