"""Tests for the serving half of the facade: ``open_service``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset, Estimator, open_service
from repro.data.registry import DATASET_PROFILES


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    """One trained + saved estimator over a persisted shard directory."""
    features, labels = DATASET_PROFILES["census"].classification(300, seed=3)
    shard_dir = tmp_path_factory.mktemp("api-shards")
    registry = tmp_path_factory.mktemp("api-registry")
    dataset = Dataset.create(
        shard_dir, features, labels, scheme="auto", batch_size=75, workers=1
    )
    estimator = Estimator("logreg", epochs=2, learning_rate=0.3)
    estimator.fit(dataset)
    estimator.save(registry)
    return registry, dataset, estimator


class TestOpenService:
    def test_round_trip_against_estimator(self, published):
        registry, dataset, estimator = published
        service, checkpoint = open_service(registry)
        with service:
            assert checkpoint.version == 1
            assert service.store.n_rows == dataset.n_examples
            ids = [0, 7, 131, 299]
            served = service.predict_ids(ids)
            direct = estimator.predict(service.store.get_rows(ids))
            np.testing.assert_array_equal(served, direct)

    def test_micro_batching_and_cache_wired(self, published):
        registry, _, _ = published
        service, _ = open_service(registry, max_batch_size=16)
        with service:
            first = service.predict_id(5)
            second = service.predict_id(5)
            assert first == second
            assert service.stats.snapshot().cache_hits == 1

    def test_missing_registry_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_service(tmp_path / "none")

    def test_shard_dir_override(self, published, tmp_path):
        registry, dataset, _ = published
        service, _ = open_service(registry, shard_dir=dataset.path)
        with service:
            assert service.store.n_rows == dataset.n_examples
