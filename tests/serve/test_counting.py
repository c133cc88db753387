"""How the in-process tier counts: a stored-row hit is counted, not timed.

A single-row hit is one :meth:`ScoreArray.get` and three lock-free ticks
(``serve.requests``, ``serve.cache.hits`` and the store's ``row_hits``).
Every other answered request is also timed into ``serve.request.seconds``.
However the callers race, the counters reconcile exactly once the service
is at rest.
"""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Dataset, Estimator
from repro.data.registry import DATASET_PROFILES
from repro.serve import service as service_module
from repro.serve.feature_store import FeatureStore
from repro.serve.service import PredictionService

ROWS, BATCH = 400, 50
THREADS, CALLS = 8, 250


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    features, labels = DATASET_PROFILES["census"].classification(ROWS, seed=5)
    dataset = Dataset.create(
        tmp_path_factory.mktemp("counting") / "shards", features, labels,
        scheme="TOC", batch_size=BATCH, workers=1, shuffle=False,
    )
    fitted = {}
    for name, params in (("linreg", {"learning_rate": 1e-3}), ("ffnn", {"hidden_sizes": (8,)})):
        estimator = Estimator(name, epochs=1, **params)
        estimator.fit(dataset)
        fitted[name] = estimator
    return fitted, dataset


@pytest.mark.parametrize("model", ["linreg", "ffnn"])
def test_racing_single_row_calls_reconcile_exactly_at_quiescence(fitted, model):
    estimators, dataset = fitted
    estimator = estimators[model]
    expected = estimator.predict(dataset)
    rng = np.random.default_rng(11)
    # Repeats within and across threads: first touches, hits and batch-mates.
    work = rng.integers(0, ROWS, size=(THREADS, CALLS)).tolist()
    start = threading.Barrier(THREADS)
    wrong: list = []

    def caller(rows: list[int]) -> None:
        start.wait()
        for row in rows:
            if service.predict_id(row) != expected[row]:
                wrong.append(row)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        service = PredictionService(
            estimator.model, FeatureStore.open(dataset.path), max_batch_size=8
        )
        with service:
            threads = [threading.Thread(target=caller, args=(rows,)) for rows in work]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Closed: the batcher thread has run every done-callback, so nothing is still counting.
    finally:
        sys.setswitchinterval(interval)

    assert wrong == []
    calls = THREADS * CALLS
    metrics = service.metrics()
    counters, timed = metrics["counters"], metrics["histograms"]["serve.request.seconds"]
    assert counters["serve.requests"] == calls
    assert counters["serve.cache.hits"] + counters["serve.cache.misses"] == calls
    assert counters["serve.cache.hits"] > 0 and counters["serve.cache.misses"] > 0
    # Hits are not timed: the histogram holds exactly the queued requests.
    assert timed["count"] == counters["serve.cache.misses"]
    # The store's identity: every single-row request's row is one hit or one miss.
    store = service.store_stats
    assert store.row_hits + store.row_misses == calls
    assert counters["serve.store.rows_gathered"] == 0
    snap = service.stats.snapshot()
    assert (snap.requests, snap.cache_hits, snap.cache_misses) == (
        calls, counters["serve.cache.hits"], counters["serve.cache.misses"]
    )


class TestTheHitPath:
    @pytest.fixture()
    def service(self, fitted):
        estimators, dataset = fitted
        with PredictionService(
            estimators["linreg"].model, FeatureStore.open(dataset.path)
        ) as service:
            service.predict_ids(range(BATCH))  # shard 0 filled, on this thread
            yield service

    def test_a_filled_row_is_answered_without_a_clock(self, service, monkeypatch):
        expected = service.predict_ids([7])[0]
        before, hits_before = service.metrics(), service.store_stats.row_hits

        def no_clock():
            raise AssertionError("a hit must not read the clock")

        monkeypatch.setattr(service_module, "time", SimpleNamespace(perf_counter=no_clock))
        assert service.submit_id(7) == service.predict_id(7) == expected

        after = service.metrics()

        def moved(kind: str, name: str) -> int:
            return after[kind][name] - before[kind][name]

        assert moved("counters", "serve.requests") == 2
        assert moved("counters", "serve.cache.hits") == 2
        assert moved("counters", "serve.cache.misses") == 0
        timed = after["histograms"]["serve.request.seconds"]["count"]
        assert timed == before["histograms"]["serve.request.seconds"]["count"]
        assert service.store_stats.row_hits == hits_before + 2

    def test_a_filled_row_takes_neither_the_service_nor_the_store_lock(self, service):
        answered: list = []
        caller = threading.Thread(target=lambda: answered.append(service.predict_id(9)))
        with service._lock, service.store._lock:
            caller.start()
            caller.join(timeout=10)
        assert answered == [service.predict_ids([9])[0]]
