"""Tests for the end-to-end prediction service."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.data.registry import DATASET_PROFILES
from repro.engine.trainer import OutOfCoreTrainer
from repro.ml.models import LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig
from repro.serve.checkpoint import ModelRegistry
from repro.serve.feature_store import FeatureStore
from repro.serve.service import PredictionService


@pytest.fixture(scope="module")
def trained_setup(tmp_path_factory):
    """Train out-of-core, checkpoint, and keep the shard dir around."""
    features, labels = DATASET_PROFILES["census"].classification(300, seed=5)
    config = GradientDescentConfig(batch_size=75, epochs=2, learning_rate=0.3)
    trainer = OutOfCoreTrainer("TOC", config, executor="serial", budget_ratio=2.0)
    model = LogisticRegressionModel(features.shape[1], seed=0)
    shard_dir = tmp_path_factory.mktemp("serve-shards")
    registry_dir = tmp_path_factory.mktemp("serve-registry")
    report = trainer.fit(model, features, labels, shard_dir, checkpoint_to=registry_dir)
    return model, shard_dir, registry_dir, report


class TestSingleRowPath:
    def test_predict_id_matches_bulk_model_predict(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store, max_batch_size=8) as service:
            singles = [service.predict_id(i) for i in range(20)]
        expected = model.predict(store.get_rows(range(20)))
        np.testing.assert_allclose(singles, expected)

    def test_predict_vector_matches_model(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        row = store.get_row(7)
        with PredictionService(model, store) as service:
            value = service.predict_vector(row)
        assert value == model.predict(row.reshape(1, -1))[0]

    def test_concurrent_clients_get_correct_answers(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        ids = list(range(60))
        expected = model.predict(store.get_rows(ids))
        with PredictionService(model, store, max_batch_size=16) as service:
            with ThreadPoolExecutor(max_workers=6) as clients:
                got = list(clients.map(service.predict_id, ids))
            assert service.batcher_stats.requests == len(ids)
        np.testing.assert_allclose(got, expected)

    def test_bulk_and_single_row_race_on_a_tiny_store_cache(self, trained_setup):
        # Regression: the bulk API (client thread) and the batcher worker
        # share the store; with a one-row decoded LRU their evictions race.
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir, decoded_cache_rows=1)
        ids = list(range(0, 300, 7))
        expected = model.predict(store.get_rows(ids))
        with PredictionService(model, store, max_batch_size=8) as service:
            with ThreadPoolExecutor(max_workers=4) as clients:
                bulk = [clients.submit(service.predict_ids, ids) for _ in range(3)]
                singles = [clients.submit(service.predict_id, i) for i in ids]
                for future in bulk:
                    np.testing.assert_allclose(future.result(timeout=10), expected)
                got = [future.result(timeout=10) for future in singles]
        np.testing.assert_allclose(got, expected)

    def test_row_id_without_store_rejected(self, trained_setup):
        model, _, _, _ = trained_setup
        with PredictionService(model) as service:
            with pytest.raises(RuntimeError, match="feature store"):
                service.predict_id(0)


class TestCache:
    def test_repeat_traffic_hits_cache(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store, cache_size=64) as service:
            for _ in range(3):
                for row_id in range(10):
                    service.predict_id(row_id)
            assert service.stats.cache_hits == 20
            assert service.stats.cache_misses == 10
            assert service.stats.cache_hit_rate == pytest.approx(2 / 3)
            # Only the misses reached the model.
            assert service.stats.rows_predicted == 10

    def test_cache_eviction_keeps_bound(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store, cache_size=4) as service:
            for row_id in range(12):
                service.predict_id(row_id)
            assert len(service._cache) <= 4

    def test_cached_value_matches_fresh_prediction(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store, cache_size=8) as service:
            first = service.predict_id(3)
            second = service.predict_id(3)
        assert first == second == model.predict(store.get_rows([3]))[0]


class TestBulkPath:
    def test_predict_ids_matches_model(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        ids = [5, 99, 200, 5]
        with PredictionService(model, store) as service:
            got = service.predict_ids(ids)
        np.testing.assert_allclose(got, model.predict(store.get_rows(ids)))

    def test_predict_matrix(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        matrix = store.get_rows(range(15))
        with PredictionService(model, store) as service:
            np.testing.assert_allclose(service.predict_matrix(matrix), model.predict(matrix))

    def test_stats_count_rows_and_time(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store) as service:
            service.predict_ids(range(25))
            assert service.stats.rows_predicted == 25
            assert service.stats.predict_seconds > 0
            assert service.stats.predicted_rows_per_second > 0


class TestFromRegistry:
    def test_checkpoint_hook_publishes_a_version(self, trained_setup):
        _, _, registry_dir, report = trained_setup
        assert report.checkpoint_version == 1
        assert ModelRegistry(registry_dir).versions() == [1]

    def test_from_registry_serves_like_the_live_model(self, trained_setup):
        model, shard_dir, registry_dir, _ = trained_setup
        service, checkpoint = PredictionService.from_registry(registry_dir, shard_dir=shard_dir)
        with service:
            got = service.predict_ids(range(30))
        store = FeatureStore.open(shard_dir)
        np.testing.assert_allclose(got, model.predict(store.get_rows(range(30))))
        assert checkpoint.version == 1
        assert checkpoint.scheme_name == "TOC"

    def test_from_registry_uses_recorded_shard_dir(self, trained_setup):
        _, shard_dir, registry_dir, _ = trained_setup
        service, checkpoint = PredictionService.from_registry(registry_dir)
        with service:
            assert service.store is not None
            assert checkpoint.shard_dir == shard_dir
            assert service.predict_id(0) in (0.0, 1.0)


class TestStatsSnapshot:
    def test_snapshot_matches_live_attributes_when_idle(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store, cache_size=8) as service:
            for row_id in (0, 1, 0, 2):
                service.predict_id(row_id)
            snap = service.stats.snapshot()
        assert snap.requests == service.stats.requests == 4
        assert snap.cache_hits == service.stats.cache_hits == 1
        assert snap.cache_misses == service.stats.cache_misses == 3
        assert snap.rows_predicted == service.stats.rows_predicted == 3
        assert snap.request_seconds == pytest.approx(service.stats.request_seconds)
        assert snap.cache_hit_rate == pytest.approx(0.25)
        assert snap.mean_request_seconds == pytest.approx(snap.request_seconds / 4)

    def test_snapshot_is_atomic_against_concurrent_writers(self, trained_setup):
        """A snapshot must never split a multi-metric update in half.

        Each synthetic request adds exactly 1.0 to ``request_seconds`` in the
        same locked section that bumps ``requests`` — so any snapshot where
        the two disagree caught a half-applied update (the race the locked
        ``snapshot()`` exists to close).
        """
        import threading

        model, *_ = trained_setup
        with PredictionService(model) as service:
            stop = threading.Event()

            def writer():
                while not stop.is_set():
                    with service._lock:
                        service.stats.record_request(1.0)

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                for _ in range(300):
                    snap = service.stats.snapshot()
                    assert snap.request_seconds == pytest.approx(float(snap.requests))
            finally:
                stop.set()
                thread.join()

    def test_two_services_do_not_share_counters(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store) as a, PredictionService(model, store) as b:
            a.predict_id(0)
            assert a.stats.requests == 1
            assert b.stats.requests == 0
            metrics_a, metrics_b = a.metrics(), b.metrics()
        assert metrics_a["counters"]["serve.requests"] == 1
        assert metrics_b["counters"]["serve.requests"] == 0
        assert metrics_a["histograms"]["serve.request.seconds"]["count"] == 1


class TestLiveCompaction:
    """Every row-id path shares one reopen-after-compact retry."""

    @pytest.mark.parametrize(
        "call, bulk",
        [
            (lambda service, ids: service.predict_ids(ids), True),
            (lambda service, ids: [service.predict_id(i) for i in ids], False),
            (lambda service, ids: service.submit_ids(ids).result(timeout=10), True),
        ],
        ids=["predict_ids", "predict_id", "submit_ids"],
    )
    @pytest.mark.parametrize(
        "ids, shards_covered",
        # 7-8 rows of each 50-row shard are row-sliced; whole shards (and one
        # scattered row) are scored in the compressed domain, so that branch
        # meets the deleted files too.
        [(list(range(0, 200, 7)), 0), ([*range(150), 199], 3)],
        ids=["scattered", "covering"],
    )
    def test_row_id_paths_survive_a_generation_swap(
        self, tmp_path, call, bulk, ids, shards_covered
    ):
        from repro.api import Dataset, Estimator, open_service

        features, labels = DATASET_PROFILES["census"].classification(200, seed=5)
        # DEN shards: readvise re-encodes them, so the compact deletes the
        # files the open service's lazy loaders still point at.
        dataset = Dataset.create(
            tmp_path / "shards", features, labels, scheme="DEN",
            batch_size=50, executor="serial",
        )
        estimator = Estimator("logreg", epochs=1)
        estimator.fit(dataset)
        estimator.save(tmp_path / "registry")
        with open_service(tmp_path / "registry", cache_size=0)[0] as reference:
            expected = reference.predict_ids(ids)

        with open_service(tmp_path / "registry", cache_size=0)[0] as service:
            generation = service.generation
            Dataset.open(tmp_path / "shards").compact(readvise=True, executor="serial")
            np.testing.assert_allclose(call(service, ids), expected)
            assert service.generation == generation + 1
            counters = service.metrics()["counters"]
            assert counters["serve.store.reopens"] == 1
            assert counters["serve.store.shards_scored"] == (shards_covered if bulk else 0)


class TestBulkRequestsOnTheQueue:
    def test_submit_id_is_a_future_on_a_miss_and_the_value_on_a_hit(self, trained_setup):
        from concurrent.futures import Future

        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store, cache_size=4) as service:
            miss = service.submit_id(3, deadline=30.0)
            assert isinstance(miss, Future)
            value = miss.result(timeout=10)
            assert service.submit_id(3) == value == service.predict_id(3)
            assert service.stats.requests == 3 and service.stats.cache_hits == 2

    def test_submit_ids_counts_one_request_and_every_row(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        ids = list(range(40))
        with PredictionService(model, store, max_batch_size=8) as service:
            got = service.submit_ids(ids).result(timeout=10)
            assert service.stats.requests == 1
            assert service.stats.rows_predicted == len(ids)
        assert isinstance(got, list)
        np.testing.assert_allclose(got, model.predict(store.get_rows(ids)))

    def test_bulk_and_single_row_requests_fail_independently(self, trained_setup):
        import threading

        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        entered, gate = threading.Event(), threading.Event()
        original = model.predict

        class Gated:
            n_features = model.n_features
            core_ops = model.core_ops  # bulk requests score covered shards whole

            def predict(self, matrix):
                entered.set()
                gate.wait(timeout=5)
                return original(matrix)

        with PredictionService(Gated(), store, max_batch_size=8) as service:
            blocker = service.submit_id(0)  # occupies the batcher thread
            assert entered.wait(timeout=5)
            bad = service.submit_ids([1, 10_000_000])
            good = service.submit_id(2)
            gate.set()
            assert blocker.result(timeout=10) == original(store.get_rows([0]))[0]
            with pytest.raises(Exception, match="10000000"):
                bad.result(timeout=10)
            assert good.result(timeout=10) == original(store.get_rows([2]))[0]
            assert service.batcher_stats.batches == 2  # bad and good shared one
            # ... and the other way round: a bad single row leaves the bulk request alone.
            gate.clear(), entered.clear()
            blocker = service.submit_id(0)
            assert entered.wait(timeout=5)
            covered = list(range(30))  # of a 75-row shard: scored whole
            bulk, bad_single = service.submit_ids(covered), service.submit_id(10_000_000)
            gate.set()
            np.testing.assert_allclose(bulk.result(timeout=10), original(store.get_rows(covered)))
            assert service.store_stats.shards_scored == 1
            with pytest.raises(Exception, match="10000000"):
                bad_single.result(timeout=10)
