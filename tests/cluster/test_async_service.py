"""Tests for the asyncio serving surface (in-process admission + deadlines)."""

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
from repro.serve.service import PredictionService


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    features, labels = DATASET_PROFILES["census"].classification(240, seed=11)
    shard_dir = tmp_path_factory.mktemp("async-shards")
    registry = tmp_path_factory.mktemp("async-registry")
    dataset = Dataset.create(
        shard_dir, features, labels, scheme="TOC", batch_size=60, executor="serial"
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
        service, _ = open_service(registry, cache_size=0)
        ids = [0, 5, 100, 239]
        expected = estimator.predict(service.store.get_rows(ids))

        async def go():
            async with AsyncPredictionService(service) as aps:
                return await aps.predict_many(ids)

        np.testing.assert_allclose(_run(go()), expected)

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
        service, _ = open_service(registry, max_batch_size=16, cache_size=0)

        async def go():
            async with AsyncPredictionService(service) as aps:
                await asyncio.gather(*(aps.predict(i) for i in range(48)))

        _run(go())
        assert service.batcher_stats.batches < 48

    def test_event_loop_not_blocked_during_decode(self, published):
        registry, _, _ = published
        service, _ = open_service(registry, cache_size=0)
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


class TestAdmission:
    def test_reject_policy_raises_overloaded(self):
        service = PredictionService(_SlowModel(0.05), max_batch_size=1)

        async def go():
            aps = AsyncPredictionService(service, max_inflight=1, admission="reject")
            first = asyncio.ensure_future(aps.predict_vector([0.0] * 4))
            await asyncio.sleep(0.01)  # let the first request occupy the slot
            with pytest.raises(ServiceOverloaded):
                await aps.predict_vector([1.0] * 4)
            await first
            await aps.close()

        _run(go())

    def test_block_policy_waits_for_a_slot(self):
        service = PredictionService(_SlowModel(0.02), max_batch_size=1)

        async def go():
            aps = AsyncPredictionService(service, max_inflight=1, admission="block")
            results = await asyncio.gather(
                *(aps.predict_vector([float(i)] * 4) for i in range(4))
            )
            assert aps.inflight == 0
            await aps.close()
            return results

        assert len(_run(go())) == 4

    def test_block_policy_sheds_on_deadline(self):
        service = PredictionService(_SlowModel(0.2), max_batch_size=1)

        async def go():
            aps = AsyncPredictionService(service, max_inflight=1, admission="block")
            first = asyncio.ensure_future(aps.predict_vector([0.0] * 4))
            await asyncio.sleep(0.01)
            with pytest.raises(DeadlineExceeded):
                await aps.predict_vector([1.0] * 4, deadline=0.05)
            await first
            await aps.close()

        _run(go())

    def test_deadline_sheds_slow_prediction(self):
        service = PredictionService(_SlowModel(0.5), max_batch_size=1)

        async def go():
            aps = AsyncPredictionService(service, default_deadline=0.05)
            with pytest.raises(DeadlineExceeded):
                await aps.predict_vector([0.0] * 4)
            await aps.close(drain=False)

        _run(go())

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

    def test_invalid_admission_rejected(self):
        service = PredictionService(_SlowModel(0.0))
        with pytest.raises(ValueError, match="admission"):
            AsyncPredictionService(service, admission="drop")
        service.close()

    def test_closed_service_rejects_new_requests(self):
        service = PredictionService(_SlowModel(0.0))

        async def go():
            aps = AsyncPredictionService(service)
            await aps.close()
            with pytest.raises(ServiceClosed):
                await aps.predict_vector([0.0] * 4)

        _run(go())


class TestMetrics:
    def test_metrics_merge_serve_and_cluster_series(self, published):
        registry, _, _ = published
        service, _ = open_service(registry, cache_size=8)

        async def go():
            async with AsyncPredictionService(service, max_inflight=4) as aps:
                await aps.predict_many([0, 1, 2, 3])
                return aps.metrics()

        metrics = _run(go())
        assert metrics["counters"]["cluster.async.requests"] == 4
        assert "serve.requests" in metrics["counters"]
        assert metrics["gauges"]["cluster.async.inflight"] == 0

    def test_per_request_exceptions_in_predict_many(self):
        service = PredictionService(_SlowModel(0.1), max_batch_size=1)

        async def go():
            aps = AsyncPredictionService(service, max_inflight=1, admission="reject")
            results = await asyncio.gather(
                *(
                    aps.predict_vector([0.0] * 4)
                    for _ in range(3)
                ),
                return_exceptions=True,
            )
            await aps.close()
            return results

        results = _run(go())
        assert any(isinstance(r, ServiceOverloaded) for r in results)
        assert any(isinstance(r, float) for r in results)


class TestGenerationWatching:
    def test_watcher_reopens_after_compact(self, tmp_path):
        features, labels = DATASET_PROFILES["census"].classification(200, seed=5)
        # DEN shards: readvise re-encodes to a sparser scheme, so the compact
        # genuinely swaps files and bumps the manifest generation (a no-op
        # compact deliberately does neither).
        dataset = Dataset.create(
            tmp_path / "shards", features, labels, scheme="DEN",
            batch_size=50, executor="serial",
        )
        estimator = Estimator("logreg", epochs=1)
        estimator.fit(dataset)
        estimator.save(tmp_path / "registry")
        service, _ = open_service(tmp_path / "registry", cache_size=0)
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
            dataset.compact(readvise=True, executor="serial")
            assert reopened.wait(timeout=5)
            assert await aps.predict(0) == expected
            await aps.close()

        _run(go())
        assert service.generation == generation_before + 1
