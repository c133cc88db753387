"""Tests for the asyncio serving surface: a bridge over ``submit_*``."""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.api import Dataset, Estimator, open_service
from repro.cluster import (
    AsyncPredictionService,
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.data.registry import DATASET_PROFILES
from repro.serve.batcher import MicroBatcher
from repro.serve.feature_store import FeatureStore
from repro.serve.service import PredictionService


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    features, labels = DATASET_PROFILES["census"].classification(240, seed=11)
    shard_dir = tmp_path_factory.mktemp("async-shards")
    registry = tmp_path_factory.mktemp("async-registry")
    dataset = Dataset.create(
        shard_dir, features, labels, scheme="TOC", batch_size=60, workers=1
    )
    estimator = Estimator("logreg", epochs=2, learning_rate=0.3)
    estimator.fit(dataset)
    estimator.save(registry)
    return registry, dataset, estimator


class _SlowModel:
    """A model whose predictions take a controllable amount of wall time."""

    n_features = 4

    def __init__(self, seconds: float):
        self.seconds = seconds

    def predict(self, matrix):
        time.sleep(self.seconds)
        return np.zeros(matrix.shape[0])


def _run(coro):
    return asyncio.run(coro)


class TestPrediction:
    def test_predict_matches_sync_service(self, published):
        registry, _, estimator = published
        service, _ = open_service(registry)
        ids = [0, 5, 100, 239]
        expected = estimator.predict(service.store.get_rows(ids))

        async def go():
            async with AsyncPredictionService(service) as aps:
                return await aps.predict_many(ids)

        np.testing.assert_allclose(_run(go()), expected)

    def test_the_bridge_caches_like_open_service(self, published):
        registry, _, _ = published
        reference, _ = open_service(registry)
        bridge, _ = AsyncPredictionService.from_registry(registry)

        async def go():
            async with bridge:
                return await bridge.predict(3)

        with reference:
            expected = reference.predict_id(3)
            assert reference.metrics()["counters"]["serve.store.shards_scored"] == 1
        assert _run(go()) == expected
        # A score vector, not a dense row.
        assert bridge.service.metrics()["counters"]["serve.store.shards_scored"] == 1

    def test_predict_vector(self, published):
        registry, _, _ = published
        service, _ = open_service(registry)
        vector = service.store.get_row(3)

        async def go():
            async with AsyncPredictionService(service) as aps:
                one = await aps.predict(3)
                other = await aps.predict_vector(vector)
                return one, other

        one, other = _run(go())
        assert one == other

    def test_concurrent_requests_micro_batch(self, published):
        registry, _, _ = published
        service, _ = open_service(registry, max_batch_size=16)
        vectors = service.store.get_rows(range(48))  # raw vectors: every request queues
        # The first model call waits until all 48 requests are queued or in
        # its batch, so the rest must coalesce however the threads interleave.
        model, held, release = service.model, [], threading.Event()

        class Gated:
            def predict(self, batch):
                held.append(batch.shape[0])
                release.wait(timeout=30)
                return model.predict(batch)

        service.model = Gated()

        async def go():
            async with AsyncPredictionService(service) as aps:
                answers = asyncio.gather(*(aps.predict_vector(vector) for vector in vectors))
                while not (release.is_set() or answers.done()):
                    await asyncio.sleep(0.001)
                    if held and held[0] + service.queue_depth == 48:
                        release.set()
                await answers

        _run(go())
        assert service.batcher_stats.requests == 48
        assert service.batcher_stats.batches < 48

    def test_event_loop_not_blocked_during_decode(self, published):
        registry, _, _ = published
        service, _ = open_service(registry)
        ticks = []

        async def ticker():
            for _ in range(20):
                ticks.append(time.monotonic())
                await asyncio.sleep(0.001)

        async def go():
            async with AsyncPredictionService(service) as aps:
                await asyncio.gather(
                    aps.predict_many(list(range(60))), ticker()
                )

        _run(go())
        # The ticker kept running while predictions decoded off-loop: no
        # single gap close to the full serving time.
        gaps = np.diff(ticks)
        assert gaps.max() < 0.5


class _GatedModel(_SlowModel):
    """Parks the batcher inside ``predict`` until the test opens the gate."""

    def __init__(self):
        super().__init__(0.0)
        self.entered, self.gate = threading.Event(), threading.Event()

    def predict(self, matrix):
        self.entered.set()
        assert self.gate.wait(timeout=10)
        return super().predict(matrix)


class TestAdmission:
    """The service's queue bound and the per-call deadline are the admission."""

    def test_a_full_queue_fails_its_own_slots_in_predict_many(self, published):
        _, dataset, _ = published
        model = _GatedModel()
        service = PredictionService(
            model, FeatureStore.open(dataset.path), max_batch_size=1, max_queue=1
        )

        async def go():
            aps = AsyncPredictionService(service)
            first = asyncio.ensure_future(aps.predict_vector([0.0] * 4))
            await asyncio.get_running_loop().run_in_executor(None, model.entered.wait, 10)
            many = asyncio.ensure_future(aps.predict_many([0, 1, 2], return_exceptions=True))
            await asyncio.sleep(0.05)  # all three submitted: one queued, two refused
            model.gate.set()
            await first
            results = await many
            await aps.close()
            return results

        results = _run(go())
        assert results[0] == 0.0
        assert [type(r) for r in results[1:]] == [ServiceOverloaded, ServiceOverloaded]

    def test_an_unbounded_queue_answers_every_waiting_caller(self):
        service = PredictionService(_SlowModel(0.02), max_batch_size=1)

        async def go():
            async with AsyncPredictionService(service) as aps:
                return await asyncio.gather(
                    *(aps.predict_vector([float(i)] * 4) for i in range(4))
                )

        assert _run(go()) == [0.0] * 4
        assert service.batcher_stats.batches == 4

    def test_a_per_call_deadline_sheds_a_slow_prediction(self):
        service = PredictionService(_SlowModel(0.5), max_batch_size=1)

        async def go():
            aps = AsyncPredictionService(service)
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded, match="before the prediction finished"):
                await aps.predict_vector([0.0] * 4, deadline=0.05)
            elapsed = time.monotonic() - start
            await aps.close(drain=False)
            return elapsed

        assert _run(go()) < 0.4  # the caller was answered, not the model waited out

    def test_queued_request_past_its_deadline_never_reaches_the_model(self):
        calls = []

        class Recording(_SlowModel):
            def predict(self, matrix):
                calls.append(matrix[:, 0].tolist())
                return super().predict(matrix)

        service = PredictionService(Recording(0.2), max_batch_size=1)

        async def go():
            aps = AsyncPredictionService(service)
            first = asyncio.ensure_future(aps.predict_vector([0.0] * 4))
            await asyncio.sleep(0.01)  # the batcher is now inside the slow model
            with pytest.raises(DeadlineExceeded):
                await aps.predict_vector([1.0] * 4, deadline=0.05)
            await first
            await aps.close()  # drains: anything still queued would run now

        _run(go())
        assert calls == [[0.0]]

    def test_closed_service_rejects_new_requests(self):
        service = PredictionService(_SlowModel(0.0))

        async def go():
            aps = AsyncPredictionService(service)
            await aps.close()
            with pytest.raises(ServiceClosed):
                await aps.predict_vector([0.0] * 4)

        _run(go())

    def test_a_score_vector_hit_submits_nothing(self, published, monkeypatch):
        registry, _, estimator = published
        service, _ = open_service(registry)
        expected = estimator.predict(service.store.get_rows([0, 1]))
        submits = []
        real_submit = MicroBatcher.submit

        def counting_submit(self, request, **kwargs):
            submits.append(request)
            return real_submit(self, request, **kwargs)

        monkeypatch.setattr(MicroBatcher, "submit", counting_submit)

        async def go():
            async with AsyncPredictionService(service) as aps:
                miss = await aps.predict(0)  # scores row 0's shard: one submit
                hit = await aps.predict(1)  # same shard, resident vector
                return miss, hit

        np.testing.assert_allclose(_run(go()), expected)
        assert len(submits) == 1


class TestMetrics:
    def test_metrics_are_the_services_own(self, published):
        registry, _, _ = published
        service, _ = open_service(registry)

        async def go():
            async with AsyncPredictionService(service) as aps:
                await aps.predict_many([0, 1, 2, 3])
                return aps.metrics()

        metrics = _run(go())
        assert metrics == service.metrics()
        assert metrics["counters"]["serve.requests"] == 4
        assert not any(".async." in key for kind in metrics.values() for key in kind)

    def test_a_refusal_and_a_queued_shed_each_count_once(self):
        model = _GatedModel()
        service = PredictionService(model, max_batch_size=1, max_queue=1)

        async def go():
            aps = AsyncPredictionService(service)
            first = asyncio.ensure_future(aps.predict_vector([0.0] * 4))
            await asyncio.get_running_loop().run_in_executor(None, model.entered.wait, 10)
            doomed = asyncio.ensure_future(aps.predict_vector([1.0] * 4, deadline=0.01))
            await asyncio.sleep(0.05)  # queued behind the gated request
            with pytest.raises(ServiceOverloaded):
                await aps.predict_vector([2.0] * 4)
            with pytest.raises(DeadlineExceeded):
                await doomed
            model.gate.set()
            await first
            await aps.close()  # the batcher drops the expired request on the way out
            return aps.metrics()["counters"]

        counters = _run(go())
        assert counters["serve.shed{reason=overloaded}"] == 1
        assert counters["serve.shed{reason=deadline}"] == 1
        assert counters["serve.requests"] == 1


class TestGenerationWatching:
    def test_watcher_reopens_after_compact(self, tmp_path, pin_calibration):
        features, labels = DATASET_PROFILES["census"].classification(200, seed=5)
        # DEN shards: readvise re-encodes to TOC (the pinned calibration's
        # pick), so the compact genuinely swaps files and bumps the manifest
        # generation (a no-op compact deliberately does neither).
        dataset = Dataset.create(
            tmp_path / "shards", features, labels, scheme="DEN",
            batch_size=50, workers=1,
        )
        pin_calibration(dataset.path, {"TOC": 1e-9})
        estimator = Estimator("logreg", epochs=1)
        estimator.fit(dataset)
        estimator.save(tmp_path / "registry")
        service, _ = open_service(tmp_path / "registry")
        generation_before = service.generation

        reopened = threading.Event()
        original = service.maybe_reopen_store

        def spy():
            if original():
                reopened.set()
                return True
            return False

        async def go():
            aps = AsyncPredictionService(service, watch_generation=0.05)
            aps._watcher.callback = spy
            expected = await aps.predict(0)
            dataset.compact(readvise=True, workers=1)
            assert reopened.wait(timeout=5)
            assert await aps.predict(0) == expected
            await aps.close()

        _run(go())
        assert service.generation == generation_before + 1
