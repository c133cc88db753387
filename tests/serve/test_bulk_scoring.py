"""Scoring in the compressed domain: the oracle, the fill, the counts.

For a linear model the service fills its score array a shard at a time,
one ``model.predict(parsed shard)`` — the paper's §4 kernels — and every
row-id path gathers its answers out of that array.  Compressed-domain sums
associate differently from dense ones, so the oracle is pinned here:

* every answer — single row, bulk, queued bulk, the asyncio bridge, a
  cluster worker and the cluster dispatcher's own score array — is
  **bit-equal** to ``Estimator.predict(Dataset)``, which runs the same
  kernels per shard;
* against ``Estimator.predict(dense features)`` labels are identical and a
  regression score is within :data:`SCORE_ULPS` ulps of its *scale*
  ``|x|·|w| + |b|`` (the magnitude the rounding errors of a 68-term sum are
  relative to: a score that cancels to 1e-4 out of terms of size 1 carries
  the absolute error of the terms, thousands of ulps of itself).  Measured
  worst case on the census profile, all 8 schemes, 150-3000 rows, converged
  and diverged weights: 5.

Networks never score a shard whole: the rows a request needs are decoded
and scored densely, and go into the same array, so once a row is scored its
single-row and bulk answers are bit-identical too.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.feature_store as feature_store_module
from repro.api import AsyncPredictionService, ClusterService, Dataset, Estimator, open_service
from repro.compression.registry import available_schemes
from repro.core.toc import TOCMatrix
from repro.data.registry import DATASET_PROFILES
from repro.serve.feature_store import FeatureStore
from repro.serve.service import PredictionService

#: The stated distance between a compressed-domain and a dense regression score.
SCORE_ULPS = 8

ROWS, BATCH = 150, 50
MODELS = ("logreg", "svm", "linreg", "ffnn")
LINEAR = MODELS[:3]


def assert_scores_close(got, expected, rows: np.ndarray, model) -> None:
    scale = np.abs(rows) @ np.abs(model.weights) + abs(model.bias)
    ulp = np.nextafter(scale, np.inf) - scale
    assert np.all(np.abs(np.asarray(got) - np.asarray(expected)) <= SCORE_ULPS * ulp)


def serve(estimator: Estimator, dataset: Dataset, **kwargs) -> PredictionService:
    return PredictionService(estimator.model, FeatureStore.open(dataset.path), **kwargs)


@pytest.fixture(scope="module")
def census():
    return DATASET_PROFILES["census"].classification(ROWS, seed=7)


@pytest.fixture(scope="module")
def estimators(census) -> dict[str, Estimator]:
    features, labels = census
    fitted = {}
    for name in MODELS:
        # A learning rate linreg converges at, so its scores do cancel.
        params = {"hidden_sizes": (16, 8)} if name == "ffnn" else {}
        fitted[name] = Estimator(name, epochs=2, learning_rate=1e-3, **params)
        fitted[name].fit(features, labels)
    return fitted


@pytest.fixture(scope="module")
def datasets(census, tmp_path_factory) -> dict[str, Dataset]:
    features, labels = census
    root = tmp_path_factory.mktemp("bulk-scoring")
    return {
        scheme: Dataset.create(
            root / scheme, features, labels, scheme=scheme,
            batch_size=BATCH, workers=1, shuffle=False,
        )
        for scheme in available_schemes()
    }


@pytest.fixture(scope="module")
def registries(estimators, tmp_path_factory) -> dict[str, object]:
    root = tmp_path_factory.mktemp("bulk-registries")
    for name, estimator in estimators.items():
        estimator.save(root / name)
    return {name: root / name for name in estimators}


class TestTheOracle:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_whole_dataset_equals_the_compressed_path_bit_for_bit(
        self, census, estimators, datasets, scheme, model
    ):
        features, _ = census
        estimator, dataset = estimators[model], datasets[scheme]
        with serve(estimator, dataset) as service:
            bulk = service.predict_ids(range(ROWS))
            scored = service.metrics()["counters"]["serve.store.shards_scored"]
        assert np.array_equal(bulk, estimator.predict(dataset))
        dense = estimator.predict(features)
        if model == "linreg":
            assert_scores_close(bulk, dense, features, estimator.model)
        else:
            assert np.array_equal(bulk, dense)
        # A network's A·M over a whole shard loses to decoding it: it keeps row_slice.
        assert scored == (0 if model == "ffnn" else len(dataset))

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_single_rows_equal_the_bulk_answer_bit_for_bit(
        self, census, estimators, datasets, scheme, model
    ):
        features, _ = census
        estimator, dataset = estimators[model], datasets[scheme]
        rows = [*range(0, ROWS, 7), ROWS - 1]
        with serve(estimator, dataset) as service:
            singles = np.array([service.predict_id(row) for row in rows])
            bulk = service.predict_ids(range(ROWS))
            scored = service.metrics()["counters"]["serve.store.shards_scored"]
        dense = estimator.predict(features)[rows]
        assert np.array_equal(singles, bulk[rows])  # one array answers both
        if model == "ffnn":  # decoded rows, scored densely
            assert np.array_equal(singles, dense)
            assert scored == 0
            return
        assert np.array_equal(singles, estimator.predict(dataset)[rows])
        # Each shard was scored once, for its first single row; the bulk request found them all.
        assert scored == len(dataset)
        if model == "linreg":
            assert_scores_close(singles, dense, features[rows], estimator.model)
        else:
            assert np.array_equal(singles, dense)

    @pytest.mark.parametrize("model", LINEAR)
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_every_serving_path_answers_the_estimator_bit_for_bit(
        self, estimators, datasets, registries, scheme, model
    ):
        """Single, bulk, queued bulk, the asyncio bridge and a one-worker cluster, each cold."""
        dataset = datasets[scheme]
        expected = estimators[model].predict(dataset)
        rows = [ROWS - 1, *range(0, ROWS, 7), 3]
        opened = dict(shard_dir=dataset.path)
        with open_service(registries[model], **opened)[0] as service:
            assert [service.predict_id(row) for row in rows] == expected[rows].tolist()
        with open_service(registries[model], **opened)[0] as service:
            assert np.array_equal(service.predict_ids(range(ROWS)), expected)
            assert [service.predict_id(row) for row in rows] == expected[rows].tolist()
        with open_service(registries[model], **opened)[0] as service:
            assert service.submit_ids(rows).result(timeout=10) == expected[rows].tolist()

        async def bridged():
            bridge, _ = AsyncPredictionService.from_registry(registries[model], **opened)
            async with bridge:
                return await bridge.predict_many(rows)

        assert asyncio.run(bridged()) == expected[rows].tolist()
        with ClusterService(registries[model], workers=1, **opened) as cluster:
            assert [cluster.predict(row) for row in rows] == expected[rows].tolist()
            assert cluster.predict_many(range(ROWS)) == expected.tolist()
            # Each first touch brought its whole shard back: now the dispatcher answers every row.
            hits, forwarded = _dispatcher_counts(cluster)
            assert [cluster.predict(row) for row in range(ROWS)] == expected.tolist()
            assert _dispatcher_counts(cluster) == (hits + ROWS, forwarded)

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_a_network_on_the_cluster_answers_the_estimator_bit_for_bit(
        self, estimators, datasets, registries, scheme
    ):
        """A network's worker scores single rows, so the dispatcher keeps single rows."""
        dataset = datasets[scheme]
        expected = estimators["ffnn"].predict(dataset)
        rows = [ROWS - 1, *range(0, ROWS, 7), 3]
        with ClusterService(registries["ffnn"], workers=1, shard_dir=dataset.path) as cluster:
            assert [cluster.predict(row) for row in rows] == expected[rows].tolist()
            filled = cluster.metrics()["gauges"]["cluster.server.rows_filled"]
            assert filled == len(set(rows))
            hits, forwarded = _dispatcher_counts(cluster)
            assert [cluster.predict(row) for row in rows] == expected[rows].tolist()
            assert _dispatcher_counts(cluster) == (hits + len(rows), forwarded)
            # Their neighbours were never asked for: a worker answers them.
            neighbours = [row + 1 for row in rows if row + 1 not in rows and row + 1 < ROWS]
            assert [cluster.predict(row) for row in neighbours] == expected[neighbours].tolist()
            assert _dispatcher_counts(cluster) == (hits + len(rows), forwarded + len(neighbours))
            assert cluster.predict_many(range(ROWS)) == expected.tolist()


def _dispatcher_counts(cluster: ClusterService) -> tuple[int, int]:
    """(rows the dispatcher answered itself, requests its worker counted)."""
    counters = cluster.metrics()["counters"]
    return counters["cluster.server.cache_hits"], counters["cluster.worker.requests{worker=0}"]


class TestMixedRequests:
    SHARD = 200
    SOME = 50  # rows of a shard a request asks for without covering it

    @pytest.fixture(scope="class")
    def mixed(self, tmp_path_factory):
        """Six 200-row shards alternating TOC and CVI, and a fitted logreg."""
        features, labels = DATASET_PROFILES["census"].classification(6 * self.SHARD, seed=11)
        dataset = Dataset.create(
            tmp_path_factory.mktemp("bulk-mixed"), features, labels,
            scheme=["TOC", "CVI"] * 3, batch_size=self.SHARD, workers=1, shuffle=False,
        )
        estimator = Estimator("logreg", epochs=2, learning_rate=0.3)
        estimator.fit(dataset)
        return dataset, estimator

    def request(self) -> list[int]:
        shard = self.SHARD
        ids = list(range(0, shard))  # shard 0, whole
        ids += list(range(2 * shard - 1, shard - 1, -1))  # shard 1, whole, backwards
        ids += list(range(2 * shard, 2 * shard + self.SOME))
        ids += list(range(3 * shard, 3 * shard + self.SOME - 1))
        ids += list(range(4 * shard + 7, 4 * shard + 7 + self.SOME + 1))
        ids += [5 * shard + 3, 5 * shard + 190, 5 * shard + 3, 5 * shard + 3]  # scattered, repeated
        return ids[::-1][::2] + ids[::-1][1::2]  # every shard's rows interleaved with the others'

    def test_request_order_and_per_row_answers(self, mixed):
        dataset, estimator = mixed
        ids = self.request()
        with serve(estimator, dataset) as service:
            bulk = service.predict_ids(ids)
            per_row = {row: service.predict_id(row) for row in sorted(set(ids))}
            queued = service.submit_ids(ids).result(timeout=10)
        assert bulk.tolist() == [per_row[row] for row in ids] == queued

    def test_every_touched_shard_is_scored_whole_and_the_counters_say_so(self, mixed):
        dataset, estimator = mixed
        ids = self.request()
        distinct = len(set(ids))
        with serve(estimator, dataset) as service:
            service.predict_ids(ids)
            service.predict_ids(ids)  # every touched shard filled: all gathered
            stats, snap = service.store_stats, service.stats.snapshot()
            counters = service.metrics()["counters"]
            assert snap.rows_predicted == distinct  # rows asked of the model
            assert service.metrics()["gauges"]["serve.cache.rows"] == 6 * self.SHARD
            assert (snap.cache_misses, snap.cache_hits) == (1, 1)
        assert counters["serve.store.shards_scored"] == 6
        assert counters["serve.store.rows_scored"] == 6 * self.SHARD
        # A row the first request had computed is a miss; every other one is gathered.
        assert (stats.row_hits, stats.row_misses) == (0, distinct)
        assert counters["serve.store.rows_gathered"] == 2 * len(ids) - distinct
        assert stats.payload_parses == 6  # one per shard touched

    def test_an_empty_request_touches_nothing(self, mixed):
        dataset, estimator = mixed
        with serve(estimator, dataset) as service:
            empty = service.predict_ids([])
            assert service.store_stats.payload_parses == 0
        assert empty.dtype == np.float64 and empty.shape == (0,)

    @pytest.mark.parametrize("bad", [-1, 6 * 200])
    @pytest.mark.parametrize("covering", [True, False], ids=["covering", "scattered"])
    def test_an_id_out_of_range_fails_the_request_before_any_shard_is_read(
        self, mixed, bad, covering
    ):
        dataset, estimator = mixed
        ids = (list(range(400)) if covering else [3, 250, 900]) + [bad, 5]
        with serve(estimator, dataset) as service:
            with pytest.raises(IndexError, match=rf"row {bad} out of range \[0, 1200\)"):
                service.predict_ids(ids)
            with pytest.raises(IndexError, match=rf"row {bad} out of range \[0, 1200\)"):
                service.submit_ids(ids).result(timeout=10)
            assert service.store_stats.payload_parses == 0
            assert service.stats.snapshot().rows_predicted == 0


class CountingModel:
    """A fitted linear model that counts its ``predict`` calls."""

    def __init__(self, model):
        self.model, self.core_ops, self.predicts = model, model.core_ops, 0

    def predict(self, batch):
        self.predicts += 1
        return self.model.predict(batch)


class TestNothingIsDecoded:
    @pytest.fixture
    def calls(self, monkeypatch) -> dict[str, int]:
        """Live counts of every route into a TOC decode, and of the TOC ``matvec``."""
        calls = {"row_slice": 0, "to_dense": 0, "matvec": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        # The store's repro.exec entry point, and the methods every route to a
        # TOC decode ends in (exec.row_slice / exec.to_dense dispatch to them).
        monkeypatch.setattr(
            feature_store_module, "row_slice", counted("row_slice", feature_store_module.row_slice)
        )
        for name in ("row_slice", "to_dense", "matvec"):
            monkeypatch.setattr(
                TOCMatrix, name, counted(name, getattr(TOCMatrix, name))
            )
        return calls

    def test_scoring_every_row_of_toc_shards_never_slices_or_densifies(
        self, estimators, datasets, calls
    ):
        dataset = datasets["TOC"]
        with serve(estimators["logreg"], dataset) as service:
            service.predict_ids(range(ROWS))
            assert calls == {"row_slice": 0, "to_dense": 0, "matvec": len(dataset)}
            assert service.store_stats.payload_parses == len(dataset)
            assert service.store_stats.shard_decodes == 0
            service.store.get_rows([0])  # the wrappers are live: a direct read does slice
            assert calls["row_slice"] == 2  # the store's call and the method under it

    def test_warm_single_rows_run_no_model_and_decode_nothing(self, estimators, datasets, calls):
        dataset = datasets["TOC"]
        model = CountingModel(estimators["logreg"].model)
        store = FeatureStore.open(dataset.path)
        with PredictionService(model, store) as service:
            for shard in range(len(dataset)):
                service.predict_id(shard * BATCH)  # one request per shard
            assert (model.predicts, calls["matvec"]) == (len(dataset), len(dataset))
            expected = estimators["logreg"].predict(dataset)
            calls["matvec"] = 0  # the estimator's own
            assert [service.predict_id(row) for row in range(ROWS)] == expected.tolist()
            assert model.predicts == len(dataset)
            assert calls == {"row_slice": 0, "to_dense": 0, "matvec": 0}
            assert service.store_stats.payload_parses == len(dataset)
            assert service.store_stats.row_hits == ROWS
            assert service.batcher_stats.requests == len(dataset)  # a hit is never queued

    def test_two_misses_on_one_shard_in_one_batch_score_it_once(self, estimators, datasets, calls):
        dataset = datasets["TOC"]
        model = CountingModel(estimators["logreg"].model)
        store = FeatureStore.open(dataset.path)
        # The batcher lingers for a second request, so both share its one batch.
        with PredictionService(model, store, max_batch_size=2, max_wait_seconds=5.0) as service:
            first, second = service.submit_id(3), service.submit_id(BATCH - 1)
            answers = [first.result(timeout=10), second.result(timeout=10)]
            assert service.batcher_stats.batches == 1
            assert (model.predicts, calls["matvec"]) == (1, 1)
            assert (service.stats.snapshot().cache_misses, service.store_stats.row_misses) == (2, 2)
            assert service.metrics()["counters"]["serve.store.shards_scored"] == 1
            assert service.stats.snapshot().rows_predicted == 2
        assert answers == estimators["logreg"].predict(dataset)[[3, BATCH - 1]].tolist()


class TestAnyRequest:
    @pytest.fixture(scope="class")
    def services(self, estimators, datasets):
        dataset = datasets["TOC"]
        opened = {name: serve(estimators[name], dataset) for name in ("logreg", "linreg")}
        yield dataset, opened
        for service in opened.values():
            service.close()

    @given(st.lists(st.integers(0, ROWS - 1), max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_any_id_list_equals_the_model_on_the_rows_taken(self, estimators, services, ids):
        dataset, opened = services
        rows = dataset.take(ids)
        labels = opened["logreg"].predict_ids(ids)
        assert np.array_equal(labels, estimators["logreg"].model.predict(rows))
        model = estimators["linreg"].model
        assert_scores_close(opened["linreg"].predict_ids(ids), model.predict(rows), rows, model)
