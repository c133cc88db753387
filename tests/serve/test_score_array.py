"""Every model's stored rows are answered out of one score array per store handle.

A linear model fills it a shard at a time, a network a request's missing
rows at a time; nothing is evicted, and a reopen starts a new array.  These
tests pin the counters that the traced benchmark divides by, and that
concurrent callers across a compaction never get a score from the wrong
generation.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Dataset, Estimator
from repro.data.registry import DATASET_PROFILES
from repro.serve.feature_store import FeatureStore
from repro.serve.service import PredictionService, ScoreArray

ROWS, BATCH = 400, 50


def _resident(service: PredictionService) -> int:
    return service.metrics()["gauges"]["serve.cache.rows"]


def _filled(service: PredictionService) -> int:
    return service._serving.n_filled


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    features, labels = DATASET_PROFILES["census"].classification(ROWS, seed=3)
    dataset = Dataset.create(
        tmp_path_factory.mktemp("score-array") / "shards", features, labels,
        scheme="TOC", batch_size=BATCH, workers=1, shuffle=False,
    )
    estimator = Estimator("logreg", epochs=2)
    estimator.fit(dataset)
    return estimator, dataset


def _answer(served) -> float:
    return served.result(timeout=10) if isinstance(served, Future) else served


class TestTheArray:
    def test_a_filled_row_keeps_its_first_value_and_no_id_wraps_around(self):
        array = ScoreArray(6, generation=3)
        array.write(np.array([1, 2]), np.array([0.25, 0.5]))
        array.write(np.array([2, 3]), np.array([9.0, 0.75]))  # row 2 is filled: kept
        assert [array.get(row) for row in range(-1, 7)] == [
            None, None, 0.25, 0.5, 0.75, None, None, None
        ]
        assert (array.n_filled, array.complete) == (3, False)
        array.write(np.arange(6), np.arange(6.0))
        assert (array.n_filled, array.complete) == (6, True)
        assert array.get(2) == 0.5 and array.get(6) is None

    def test_a_span_is_the_whole_run_when_filled_else_the_row_else_nothing(self):
        array = ScoreArray(6, generation=3)
        array.write(np.array([1, 4, 5]), np.array([0.25, 0.5, 0.75]))
        start, scores = array.span(1, 0, 3)
        assert start == 1 and scores.tolist() == [0.25]
        start, scores = array.span(5, 3, 6)
        assert start == 5 and scores.tolist() == [0.75]
        start, scores = array.span(0, 0, 3)
        assert start == 0 and scores.size == 0
        array.write(np.array([3]), np.array([0.125]))
        start, scores = array.span(4, 3, 6)
        assert start == 3 and scores.tolist() == [0.125, 0.5, 0.75]
        scores[0] = 7.0  # a copy: the caller cannot write into the array
        assert array.get(3) == 0.125

    def test_the_service_reads_a_shard_back_once_it_is_scored(self, fitted):
        estimator, dataset = fitted
        expected = estimator.predict(dataset)
        with PredictionService(estimator.model, FeatureStore.open(dataset.path)) as service:
            generation = service.generation
            start, scores = service.scored_span(BATCH + 3)[1:]
            assert start == BATCH + 3 and scores.size == 0  # nothing scored yet
            service.predict_id(BATCH + 3)
            assert service.scored_span(BATCH + 3)[:2] == (generation, BATCH)
            scores = service.scored_span(BATCH + 3)[2]
            assert scores.tolist() == expected[BATCH : 2 * BATCH].tolist()
            assert service.scored_span(ROWS)[2].size == service.scored_span(-1)[2].size == 0


class TestCounters:
    def test_mixed_traffic_and_a_reopen_keep_every_counter_meaningful(self, fitted):
        estimator, dataset = fitted
        expected = estimator.predict(dataset)
        n_shards = ROWS // BATCH
        with PredictionService(estimator.model, FeatureStore.open(dataset.path)) as service:
            id_requests = 0

            def single(row: int) -> None:
                nonlocal id_requests
                assert _answer(service.submit_id(row)) == expected[row]
                id_requests += 1

            def bulk(ids) -> None:
                nonlocal id_requests
                assert np.array_equal(service.predict_ids(ids), expected[list(ids)])
                id_requests += 1

            single(0)  # miss: shard 0 scored
            single(1)  # hit
            bulk(range(40, 120))  # shard 0 filled, shards 1 and 2 scored: a miss
            single(110)  # hit, out of the bulk request's fill
            assert service.submit_ids([7, 399]).result(timeout=10) == expected[[7, 399]].tolist()
            id_requests += 1  # shard 7 scored
            assert service.predict_vector(dataset.take([3])[0]) == pytest.approx(expected[3])
            assert _resident(service) == _filled(service) == 4 * BATCH

            first = service.store
            service.reopen_store()
            assert _resident(service) == _filled(service) == 0
            single(399)  # the new handle scores afresh: a miss
            bulk(range(ROWS))  # every other shard scored: a miss
            bulk(range(ROWS))  # complete: a hit, one gather
            single(5)  # complete: a hit without locate

            stats = service.stats.snapshot()
            assert stats.cache_hits + stats.cache_misses == id_requests == 9
            assert (stats.cache_hits, stats.cache_misses) == (4, 5)
            assert _resident(service) == _filled(service) == ROWS
            # A row a request had computed is a miss, bulk or single: rows 0,
            # 50-119 and 399 on the first handle; 399, then the other 350 on
            # the second.  A bulk request's other rows are gathered, queued
            # or not (10 + 1, then 50 + 400), and counted by the service.
            assert (first.stats.row_hits, first.stats.row_misses) == (2, 1 + 70 + 1)
            assert (service.store.stats.row_hits, service.store.stats.row_misses) == (1, 1 + 350)
            counters = service.metrics()["counters"]
            assert counters["serve.store.rows_gathered"] == 10 + 1 + 50 + ROWS
            assert counters["serve.store.shards_scored"] == 4 + n_shards
            assert counters["serve.store.rows_scored"] == (4 + n_shards) * BATCH

    def test_a_negative_id_never_wraps_around_into_the_array(self, fitted):
        estimator, dataset = fitted
        with PredictionService(estimator.model, FeatureStore.open(dataset.path)) as service:
            service.predict_ids(range(ROWS))  # every shard filled: the gather path
            with pytest.raises(IndexError, match=r"row -1 out of range \[0, 400\)"):
                service.predict_ids([3, -1])
            with pytest.raises(IndexError, match=r"row -400 out of range"):
                service.predict_id(-400)
            with pytest.raises(IndexError, match=r"row 400 out of range"):
                service.predict_ids(range(399, 401))

    def test_scoring_happens_on_first_touch_not_at_open(self, fitted):
        estimator, dataset = fitted
        with PredictionService(estimator.model, FeatureStore.open(dataset.path)) as service:
            def scored() -> int:
                return service.metrics()["counters"]["serve.store.shards_scored"]

            assert scored() == 0 and _resident(service) == 0
            service.predict_ids(range(BATCH, 2 * BATCH))
            assert scored() == 1 and _resident(service) == BATCH


class TestNetworks:
    """A network fills the array with the rows a request misses, decoded and scored densely."""

    @pytest.fixture(scope="class")
    def network(self, fitted):
        _, dataset = fitted
        estimator = Estimator("ffnn", epochs=1, hidden_sizes=(8,))
        estimator.fit(dataset)
        return estimator, dataset

    def test_once_scored_single_and_bulk_answers_are_the_same_bits(self, network):
        estimator, dataset = network
        rows = [*range(0, ROWS, 9), 7, 7, ROWS - 1]
        with PredictionService(estimator.model, FeatureStore.open(dataset.path)) as service:
            singles = [service.predict_id(row) for row in rows]
            assert service.predict_ids(rows).tolist() == singles
            bulk = service.predict_ids(range(ROWS))  # the rest decoded here, in one call
            assert [service.predict_id(row) for row in range(ROWS)] == bulk.tolist()
            assert service.submit_ids(rows).result(timeout=10) == singles
            assert service.stats.snapshot().rows_predicted == ROWS

    def test_every_request_and_every_row_is_counted_once(self, network):
        estimator, dataset = network
        with PredictionService(
            estimator.model, FeatureStore.open(dataset.path), max_batch_size=8
        ) as service, ThreadPoolExecutor(max_workers=4) as callers:
            id_requests = 0
            for start in range(0, 120, 10):
                window = range(start, start + 30)
                singles = [callers.submit(service.predict_id, row) for row in window]
                bulk = callers.submit(service.predict_ids, window)
                queued = service.submit_ids([*window, start])
                assert [f.result(timeout=10) for f in singles] == bulk.result(timeout=10).tolist()
                queued.result(timeout=10)
                id_requests += len(window) + 2
            stats, served = service.stats.snapshot(), service.store_stats
            gathered = service.metrics()["counters"]["serve.store.rows_gathered"]
            assert stats.cache_hits + stats.cache_misses == stats.requests == id_requests
            # Every row asked for is a store hit or miss, or gathered by a bulk request.
            assert served.row_accesses + gathered == 12 * (30 + 30 + 31)
            # Racing fills may both decode a row; the first write is the one kept.
            assert served.row_misses >= _filled(service) == 140


@pytest.mark.parametrize("model", ["linreg", "ffnn"])
def test_racing_callers_across_a_compaction_get_their_generations_answers(
    tmp_path, model, pin_calibration
):
    """Bulk and single-row callers race over a cold store while it is compacted and reopened."""
    features, labels = DATASET_PROFILES["census"].classification(ROWS, seed=5)
    # DEN -> TOC (the calibration pinned next to the shards makes TOC the
    # pick): the compaction re-encodes every shard and deletes the old
    # files; linreg's compressed-domain scores differ between the two
    # schemes in their last bits, so an answer shows which generation it came
    # from.  A network scores decoded rows, the same on both generations, so
    # there every answer must be the one value both agree on.
    dataset = Dataset.create(
        tmp_path / "shards", features, labels, scheme="DEN",
        batch_size=BATCH, workers=1, shuffle=False,
    )
    pin_calibration(dataset.path, {"TOC": 1e-9})
    estimator = Estimator(model, epochs=1, learning_rate=1e-3)
    estimator.fit(dataset)

    def reference():
        return estimator.predict(features if model == "ffnn" else Dataset.open(dataset.path))

    before = reference()
    started, answered = threading.Event(), []
    stop = threading.Event()

    def call(service, work):
        rng = np.random.default_rng(len(answered))
        while not stop.is_set():
            generation = service.generation
            ids, got = work(service, rng)
            answered.append((generation, service.generation, ids, got))
            started.set()

    def single(service, rng):
        row = int(rng.integers(ROWS))
        return [row], [_answer(service.submit_id(row))]

    def bulk(service, rng):
        start = int(rng.integers(ROWS))
        ids = range(start, min(ROWS, start + int(rng.integers(1, 3 * BATCH))))
        return list(ids), service.predict_ids(ids).tolist()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with PredictionService(
            estimator.model, FeatureStore.open(dataset.path), max_batch_size=4
        ) as service, ThreadPoolExecutor(max_workers=4) as callers:
            g = service.generation
            running = [callers.submit(call, service, work) for work in (single, bulk) * 2]
            assert started.wait(timeout=10)
            first = service._serving
            Dataset.open(dataset.path).compact(readvise=True, workers=1)
            service.maybe_reopen_store()
            after = reference()
            mark = len(answered)
            while len(answered) < mark + 200 and not any(f.done() for f in running):
                stop.wait(0.01)
            stop.set()
            for future in running:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)

    assert service.generation == g + 1
    # the generations are told apart by linreg's scores, and agree on a network's
    assert np.array_equal(before, after) == (model == "ffnn")
    for serving, scores in ((first, before), (service._serving, after)):
        assert np.array_equal(serving.scores[serving.filled], scores[serving.filled])
    by_generation = {g: before, g + 1: after}
    seen = set()
    for first, last, ids, got in answered:
        candidates = [by_generation[first], by_generation[last]]
        matches = [i for i, scores in enumerate(candidates) if scores[ids].tolist() == got]
        assert matches, f"rows {ids[:3]}... match neither generation"
        if first == last:
            assert 0 in matches, f"rows {ids[:3]}... answered from another generation"
            seen.add(first)
    assert seen == {g, g + 1}
