"""Tests for the end-to-end prediction service."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Dataset, Estimator
from repro.data.registry import DATASET_PROFILES
from repro.ml.models import FeedForwardNetwork
from repro.serve import feature_store
from repro.serve.checkpoint import ModelRegistry
from repro.serve.feature_store import FeatureStore
from repro.serve.service import PredictionService


@pytest.fixture(scope="module")
def trained_setup(tmp_path_factory):
    """Train out-of-core, checkpoint, and keep the shard dir around."""
    features, labels = DATASET_PROFILES["census"].classification(300, seed=5)
    shard_dir = tmp_path_factory.mktemp("serve-shards")
    registry_dir = tmp_path_factory.mktemp("serve-registry")
    dataset = Dataset.create(
        shard_dir, features, labels, scheme="TOC", batch_size=75, workers=1
    )
    estimator = Estimator(
        "logreg", scheme="TOC", batch_size=75, epochs=2, learning_rate=0.3, budget_ratio=2.0
    )
    estimator.fit(dataset)
    version, _ = estimator.save(registry_dir)
    return estimator.model, shard_dir, registry_dir, version


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
        rows = store.get_rows(ids)
        expected = model.predict(rows)
        with PredictionService(model, store, max_batch_size=16) as service:
            with ThreadPoolExecutor(max_workers=6) as clients:
                vectors = list(clients.map(service.predict_vector, rows))  # every one queued
                assert service.batcher_stats.requests == len(ids)
                got = list(clients.map(service.predict_id, ids))
            stats = service.stats.snapshot()
            assert stats.cache_hits + stats.cache_misses == len(ids)
        np.testing.assert_allclose(vectors, expected)
        np.testing.assert_allclose(got, expected)

    def test_bulk_and_single_row_race_on_a_tiny_store_cache(self, trained_setup, monkeypatch):
        # Regression: the bulk API (client thread) and the batcher worker
        # share the store; with a one-shard parsed LRU their evictions race,
        # and so do their first touches of each shard's mapping.
        model, shard_dir, _, _ = trained_setup
        monkeypatch.setattr(feature_store, "PARSED_CACHE_SHARDS", 1)
        store = FeatureStore.open(shard_dir)
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

    def test_an_id_out_of_range_fails_alone(self, trained_setup):
        # Regression: located only in the batch handler, the bad id failed
        # every single-row request coalesced with it.
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        expected = model.predict(FeatureStore.open(shard_dir).get_rows([1, 2, 3]))
        with PredictionService(model, store, max_batch_size=8, max_wait_seconds=0.05) as service:
            futures = [service.submit_id(row) for row in (1, 5000, 2, 3)]
            bad = futures.pop(1)
            assert bad.done()  # failed at the door: nothing was queued for it
            with pytest.raises(IndexError, match=r"row 5000 out of range \[0, 300\)"):
                bad.result()
            assert [future.result(timeout=10) for future in futures] == expected.tolist()
            assert service.batcher_stats.requests == 3
            with pytest.raises(IndexError, match=r"row -1 out of range \[0, 300\)"):
                service.predict_id(-1)
            assert service.stats.snapshot().requests == 3
            assert service.store_stats.row_accesses == 3

    def test_row_id_without_store_rejected(self, trained_setup):
        model, _, _, _ = trained_setup
        with PredictionService(model) as service:
            with pytest.raises(RuntimeError, match="feature store"):
                service.predict_id(0)


class TestRowIdsAreIntegers:
    """A float or bool row id is a ``TypeError``, never a truncated row."""

    @pytest.mark.parametrize(
        "row_ids",
        [np.array([1.7, 2.2]), [1.7], np.array([True, False]), [1, 2.0], [True]],
        ids=["float_array", "float_list", "mask", "mixed", "bool_list"],
    )
    def test_row_id_array_refuses_non_integers(self, row_ids):
        from repro.engine.shards import row_id_array

        with pytest.raises(TypeError):
            row_id_array(row_ids)

    def test_row_id_array_takes_ranges_and_integers(self):
        from repro.engine.shards import row_id_array

        assert row_id_array(range(3, 9, 2)).tolist() == [3, 5, 7]
        assert row_id_array(np.array([[4], [2]], dtype=np.uint8)).tolist() == [4, 2]
        assert row_id_array(iter([np.int32(1), 2])).tolist() == [1, 2]
        assert row_id_array([]).dtype == np.int64
        with pytest.raises(OverflowError):
            row_id_array([0, 2**63])

    @pytest.mark.parametrize(
        "call",
        [
            lambda service: service.predict_id(1.7),
            lambda service: service.predict_id(True),
            lambda service: service.submit_id(np.float64(2.0)),
            lambda service: service.predict_ids(np.array([1.7, 2.2])),
            lambda service: service.predict_ids(np.array([True, False])),
            lambda service: service.submit_ids([1.5]),
            lambda service: service.store.get_rows([1.7]),
        ],
        ids=["predict_id", "bool", "submit_id", "predict_ids", "mask", "submit_ids", "get_rows"],
    )
    def test_every_in_process_path_refuses_them(self, trained_setup, call):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store) as service:
            with pytest.raises(TypeError):
                call(service)
            assert service.stats.snapshot().requests == 0
            assert service.batcher_stats.requests == 0
            assert service.store_stats.row_accesses == 0


class TestCache:
    """One score array per store: a linear model fills it a shard at a time (75-row shards here)."""

    def test_repeat_traffic_hits_cache(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store) as service:
            for _ in range(3):
                for row_id in range(0, 300, 30):  # ten rows over all four shards
                    service.predict_id(row_id)
            # The first row asked of each shard scores it; its shard-mates hit at once.
            assert service.stats.snapshot().cache_hits == 26
            assert service.stats.snapshot().cache_misses == 4
            assert service.stats.snapshot().cache_hit_rate == pytest.approx(26 / 30)
            # Only the misses reached the model, one whole shard each.
            assert service.stats.snapshot().rows_predicted == 4
            assert service.metrics()["counters"]["serve.store.shards_scored"] == 4
            assert service.metrics()["counters"]["serve.store.rows_scored"] == 300
            assert (service.store_stats.row_hits, service.store_stats.row_misses) == (26, 4)
            assert service.metrics()["gauges"]["serve.cache.rows"] == 300

    def test_a_scored_shard_is_never_evicted(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store) as service:
            for row_id in (0, 80, 160, 240, 0):  # four shards, then the first again
                service.predict_id(row_id)
            assert service.metrics()["gauges"]["serve.cache.rows"] == 300
            stats = service.stats.snapshot()
            assert (stats.cache_hits, stats.cache_misses) == (1, 4)
            assert service.metrics()["counters"]["serve.store.shards_scored"] == 4

    def test_concurrent_callers_and_reopens(self, trained_setup):
        """Six callers over four shards, the store re-opened under them."""
        import sys
        import threading
        import time

        model, shard_dir, _, _ = trained_setup
        expected = model.predict(FeatureStore.open(shard_dir).get_rows(range(300))).tolist()
        ids = list(range(0, 300, 11))
        stop = threading.Event()

        def single(service):
            for row in ids * 4:
                assert service.predict_id(row) == expected[row]

        def bulk(service):
            for _ in range(40):
                assert service.predict_ids(ids).tolist() == [expected[row] for row in ids]

        def reopen(service):
            while not stop.is_set():
                service.reopen_store()
                time.sleep(0.002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PredictionService(
                model, FeatureStore.open(shard_dir), max_batch_size=4
            ) as service, ThreadPoolExecutor(max_workers=7) as callers:
                reopening = callers.submit(reopen, service)
                work = [callers.submit(job, service) for job in (single, bulk) * 3]
                try:
                    for future in work:
                        future.result(timeout=60)
                finally:
                    stop.set()
                    reopening.result(timeout=60)
                stats = service.stats.snapshot()
                assert stats.requests == 3 * len(ids) * 4 + 3 * 40
                assert stats.requests == stats.cache_hits + stats.cache_misses
                resident = service.metrics()["gauges"]["serve.cache.rows"]
                assert resident == service._serving.n_filled <= 300
        finally:
            sys.setswitchinterval(interval)

    def test_a_network_caches_predictions_by_row(self, trained_setup):
        _, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        network = FeedForwardNetwork(store.n_cols, (8,), seed=0)
        with PredictionService(network, store) as service:
            for _ in range(3):
                for row_id in range(10):
                    service.predict_id(row_id)
            # Ten rows cycling: each is decoded and scored once, then answered from the array.
            stats, served = service.stats.snapshot(), service.store_stats
            assert (stats.cache_hits, stats.cache_misses, stats.rows_predicted) == (20, 10, 10)
            assert (served.row_hits, served.row_misses) == (20, 10)
            assert service.metrics()["counters"]["serve.store.shards_scored"] == 0
            assert service.metrics()["gauges"]["serve.cache.rows"] == 10

    def test_cached_value_matches_fresh_prediction(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store) as service:
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
            assert service.stats.snapshot().rows_predicted == 25
            assert service.stats.snapshot().predict_seconds > 0
            assert service.stats.snapshot().predicted_rows_per_second > 0


class TestFromRegistry:
    def test_checkpoint_hook_publishes_a_version(self, trained_setup):
        _, _, registry_dir, version = trained_setup
        assert version == 1
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
    def test_snapshot_reads_the_registry_series_when_idle(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store) as service:
            for row_id in (0, 80, 0, 160):  # shards 0, 1, 0 again, 2
                service.predict_id(row_id)
            snap, metrics = service.stats.snapshot(), service.metrics()
        counters, histograms = metrics["counters"], metrics["histograms"]
        assert (snap.requests, snap.cache_hits, snap.cache_misses) == (4, 1, 3)
        assert (counters["serve.requests"], counters["serve.cache.hits"]) == (4, 1)
        assert snap.rows_predicted == counters["serve.rows_predicted"] == 3
        # The hit was counted, not timed: only the three queued requests were.
        assert histograms["serve.request.seconds"]["count"] == 3
        assert snap.request_seconds == histograms["serve.request.seconds"]["sum"] > 0
        assert snap.cache_hit_rate == pytest.approx(0.25)

    def test_two_services_do_not_share_counters(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store) as a, PredictionService(model, store) as b:
            a.predict_id(0)
            assert a.stats.snapshot().requests == 1
            assert b.stats.snapshot().requests == 0
            metrics_a, metrics_b = a.metrics(), b.metrics()
        assert metrics_a["counters"]["serve.requests"] == 1
        assert metrics_b["counters"]["serve.requests"] == 0
        assert metrics_a["histograms"]["serve.request.seconds"]["count"] == 1

    def test_mixed_traffic_reconciles_rows_and_requests(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store) as service:
            service.predict_id(3)  # scores shard 0: a miss
            service.predict_id(4)  # its shard-mate: a hit
            service.predict_ids([5, 6, 100])  # shard 0 resident, shard 1 scored: a miss
            service.predict_ids(range(75))  # all out of resident scores: a hit
            service.submit_ids([150, 299]).result(timeout=10)  # shards 2 and 3 scored: a miss
            service.predict_id(299)  # resident since the bulk request: a hit
            store.get_rows([7, 8])  # a direct reader: every row it decodes is a miss
            store.get_rows([7])
            stats, served = service.stats.snapshot(), service.store_stats
            counters = service.metrics()["counters"]
            assert service.metrics()["gauges"]["serve.cache.rows"] == 300
        assert stats.requests == stats.cache_hits + stats.cache_misses == 6
        assert (stats.cache_hits, stats.cache_misses) == (3, 3)
        # A row computed for its request is a miss (3; 100; 150 and 299), as is
        # every row a direct reader decodes (7, 8, 7); the rest are hits or gathered.
        assert (served.row_hits, served.row_misses) == (2, 1 + 1 + 2 + 3)
        assert stats.rows_predicted == 1 + 1 + 2  # rows asked of the model, not rows it scored
        assert counters["serve.store.shards_scored"] == 4
        assert counters["serve.store.rows_scored"] == 300
        assert counters["serve.store.rows_gathered"] == 77

    def test_a_refusal_and_a_queued_shed_each_count_once(self, trained_setup):
        from repro.serve import DeadlineExceeded, ServiceOverloaded

        model = trained_setup[0]
        entered, gate = threading.Event(), threading.Event()

        class Gated:
            n_features = model.n_features

            def predict(self, matrix):
                entered.set()
                gate.wait(timeout=5)
                return model.predict(matrix)

        vector = np.zeros(model.n_features)
        with PredictionService(Gated(), max_batch_size=1, max_queue=1) as service:
            blocker = service.submit_vector(vector)  # occupies the batcher thread
            assert entered.wait(timeout=5)
            doomed = service.submit_vector(vector, deadline=0.01)  # the one queue slot
            with pytest.raises(ServiceOverloaded):
                service.submit_vector(vector)
            time.sleep(0.05)  # the queued request's budget runs out
            gate.set()
            blocker.result(timeout=10)
            with pytest.raises(DeadlineExceeded, match="in queue"):
                doomed.result(timeout=10)
            counters = service.metrics()["counters"]
        assert counters["serve.shed{reason=overloaded}"] == 1
        assert counters["serve.shed{reason=deadline}"] == 1
        assert counters["serve.requests"] == 1


class TestLiveCompaction:
    """Every row-id path shares one reopen-after-compact retry."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda service, ids: service.predict_ids(ids),
            lambda service, ids: [service.predict_id(i) for i in ids],
            lambda service, ids: service.submit_ids(ids).result(timeout=10),
        ],
        ids=["predict_ids", "predict_id", "submit_ids"],
    )
    @pytest.mark.parametrize(
        "ids",
        # Either way every 50-row shard is touched and scored whole, on the
        # new generation: the first attempt meets the deleted files.
        [list(range(0, 200, 7)), [*range(150), 199]],
        ids=["scattered", "covering"],
    )
    def test_row_id_paths_survive_a_generation_swap(
        self, tmp_path, call, ids, pin_calibration
    ):
        from repro.api import Dataset, Estimator, open_service

        features, labels = DATASET_PROFILES["census"].classification(200, seed=5)
        # DEN shards: readvise re-encodes them (to the pinned pick, TOC), so
        # the compact deletes the files the open service's lazy loaders
        # still point at.
        dataset = Dataset.create(
            tmp_path / "shards", features, labels, scheme="DEN",
            batch_size=50, workers=1,
        )
        pin_calibration(dataset.path, {"TOC": 1e-9})
        estimator = Estimator("logreg", epochs=1)
        estimator.fit(dataset)
        estimator.save(tmp_path / "registry")
        with open_service(tmp_path / "registry")[0] as reference:
            expected = reference.predict_ids(ids)

        with open_service(tmp_path / "registry")[0] as service:
            generation = service.generation
            Dataset.open(tmp_path / "shards").compact(readvise=True, workers=1)
            np.testing.assert_allclose(call(service, ids), expected)
            assert service.generation == generation + 1
            counters = service.metrics()["counters"]
            assert counters["serve.store.reopens"] == 1
            assert counters["serve.store.shards_scored"] == 4


    def test_score_vectors_go_with_the_store_they_were_scored_from(
        self, tmp_path, pin_calibration
    ):
        from repro.api import Dataset, Estimator, open_service

        features, labels = DATASET_PROFILES["census"].classification(250, seed=5)
        dataset = Dataset.create(
            tmp_path / "shards", features[:200], labels[:200], scheme="DEN",
            batch_size=50, workers=1, shuffle=False,
        )
        pin_calibration(dataset.path, {"TOC": 1e-9})
        estimator = Estimator("logreg", epochs=1)
        estimator.fit(dataset)
        estimator.save(tmp_path / "registry")
        expected = estimator.predict(features).tolist()

        def resident(service):
            return service.metrics()["gauges"]["serve.cache.rows"]

        with open_service(tmp_path / "registry")[0] as service:
            assert [service.predict_id(row) for row in (0, 60)] == [expected[0], expected[60]]
            assert resident(service) == 2 * 50
            first = service.store
            # DEN -> TOC: the compact deletes the files `first` still points at.
            dataset.compact(readvise=True, workers=1)
            # In flight across the swap: shard 3 was never read, its file is
            # gone, and the retry answers from the new generation.
            assert service.predict_id(150) == expected[150]
            second = service.store
            assert second is not first and second.dataset.generation == first.dataset.generation + 1
            assert service.metrics()["counters"]["serve.store.reopens"] == 1
            assert resident(service) == 50  # shard 3 alone: nothing came over from `first`
            misses, served_by_first = service.stats.snapshot().cache_misses, first.stats
            # Row 0's vector was resident on the old handle; the new one scores it afresh.
            assert service.predict_id(0) == expected[0]
            assert service.stats.snapshot().cache_misses == misses + 1
            assert second.stats.row_misses == 2  # rows 150 and 0, one shard scored for each
            assert first.stats == served_by_first

            dataset.append(features[200:], labels[200:], workers=1)
            with pytest.raises(IndexError, match=r"row 249 out of range \[0, 200\)"):
                service.predict_id(249)
            assert service.maybe_reopen_store()
            assert service.metrics()["counters"]["serve.store.reopens"] == 2
            assert resident(service) == 0 and service.store_stats.row_accesses == 0
            assert [service.predict_id(row) for row in range(250)] == expected
            assert service.predict_ids(range(250)).tolist() == expected
            assert resident(service) == 250
            # Two shards scored on each earlier handle, all five on this one.
            assert service.metrics()["counters"]["serve.store.shards_scored"] == 2 + 2 + 5
            assert second.stats.row_accesses == 2


class TestBulkRequestsOnTheQueue:
    def test_submit_id_is_a_future_on_a_miss_and_the_value_on_a_hit(self, trained_setup):
        from concurrent.futures import Future

        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        with PredictionService(model, store) as service:
            miss = service.submit_id(3, deadline=30.0)
            assert isinstance(miss, Future)
            value = miss.result(timeout=10)
            assert service.submit_id(3) == value == service.predict_id(3)
            stats = service.stats.snapshot()
            assert (stats.requests, stats.cache_hits) == (3, 2)

    def test_submit_ids_counts_one_request_and_every_row(self, trained_setup):
        model, shard_dir, _, _ = trained_setup
        store = FeatureStore.open(shard_dir)
        ids = list(range(40))
        with PredictionService(model, store, max_batch_size=8) as service:
            got = service.submit_ids(ids).result(timeout=10)
            assert service.stats.snapshot().requests == 1
            assert service.stats.snapshot().rows_predicted == len(ids)
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
            core_ops = model.core_ops  # shards are scored whole

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
            blocker = service.submit_id(80)  # shard 1's first touch: queued, holds the batcher
            assert entered.wait(timeout=5)
            covered = list(range(150, 180))  # shard 2, not yet scored
            bulk, bad_single = service.submit_ids(covered), service.submit_id(10_000_000)
            gate.set()
            np.testing.assert_allclose(bulk.result(timeout=10), original(store.get_rows(covered)))
            assert service.metrics()["counters"]["serve.store.shards_scored"] == 3
            with pytest.raises(Exception, match="10000000"):
                bad_single.result(timeout=10)
