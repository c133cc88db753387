"""Tests for model checkpoints and the version registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.models import (
    FeedForwardNetwork,
    LinearSVMModel,
    LogisticRegressionModel,
)
from repro.ml.multiclass import OneVsRestClassifier
from repro.storage import mmapio
from repro.serve.checkpoint import (
    CHECKPOINT_NAME,
    ModelRegistry,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture()
def trained_model():
    model = LogisticRegressionModel(12, seed=3)
    model.weights += 0.5  # make the state distinguishable from a fresh init
    model.bias = -0.25
    return model


class TestSaveLoad:
    def test_round_trip_restores_predictions(self, tmp_path, trained_model):
        save_checkpoint(trained_model, tmp_path, scheme_name="TOC")
        restored = load_checkpoint(tmp_path)
        assert restored.model_name == "logistic_regression"
        assert restored.scheme_name == "TOC"
        batch = np.random.default_rng(0).normal(size=(8, 12))
        np.testing.assert_allclose(restored.model.predict(batch), trained_model.predict(batch))
        np.testing.assert_allclose(
            restored.model.get_parameters(), trained_model.get_parameters()
        )

    def test_round_trips_every_model_class(self, tmp_path):
        models = [
            LogisticRegressionModel(6, seed=1),
            LinearSVMModel(6, seed=1),
            FeedForwardNetwork(6, hidden_sizes=(5, 3), n_classes=4, seed=1),
        ]
        for i, model in enumerate(models):
            directory = tmp_path / f"m{i}"
            save_checkpoint(model, directory)
            restored = load_checkpoint(directory).model
            np.testing.assert_allclose(restored.get_parameters(), model.get_parameters())
            assert type(restored) is type(model)

    def test_ffn_shape_survives(self, tmp_path):
        model = FeedForwardNetwork(10, hidden_sizes=(7,), n_classes=3, seed=0)
        save_checkpoint(model, tmp_path)
        restored = load_checkpoint(tmp_path).model
        assert [w.shape for w in restored.weights] == [w.shape for w in model.weights]
        assert restored.n_classes == 3

    def test_dataset_meta_round_trips(self, tmp_path, trained_model):
        meta = {"shard_dir": str(tmp_path / "shards"), "n_examples": 400}
        save_checkpoint(trained_model, tmp_path, dataset_meta=meta)
        restored = load_checkpoint(tmp_path)
        assert restored.dataset_meta == meta
        assert restored.shard_dir == tmp_path / "shards"

    def test_unsupported_model_rejected(self, tmp_path):
        ovr = OneVsRestClassifier(lambda: LogisticRegressionModel(4), n_classes=3)
        with pytest.raises(ValueError, match="cannot checkpoint"):
            save_checkpoint(ovr, tmp_path)

    def test_missing_checkpoint_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope")


class TestModelRegistry:
    def test_versions_increment(self, tmp_path, trained_model):
        registry = ModelRegistry(tmp_path)
        assert registry.versions() == []
        assert registry.save(trained_model) == 1
        assert registry.save(trained_model) == 2
        assert registry.versions() == [1, 2]
        assert registry.latest_version() == 2

    def test_latest_resolves_newest(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        first = LogisticRegressionModel(5, seed=0)
        second = LogisticRegressionModel(5, seed=0)
        second.bias = 9.0
        registry.save(first)
        registry.save(second)
        loaded = registry.load("latest")
        assert loaded.version == 2
        assert loaded.model.bias == 9.0

    def test_pinned_version_loads(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        first = LogisticRegressionModel(5, seed=0)
        first.bias = 1.0
        registry.save(first, scheme_name="CSR")
        registry.save(LogisticRegressionModel(5, seed=0))
        pinned = registry.load(1)
        assert pinned.version == 1
        assert pinned.model.bias == 1.0
        assert pinned.scheme_name == "CSR"

    def test_unknown_version_fails(self, tmp_path, trained_model):
        registry = ModelRegistry(tmp_path)
        registry.save(trained_model)
        with pytest.raises(FileNotFoundError):
            registry.load(7)

    def test_empty_registry_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ModelRegistry(tmp_path / "empty").load()

    def test_a_failed_publish_leaves_the_previous_version_latest(self, tmp_path, monkeypatch):
        """A crash between writing the manifest and publishing it must not
        leave a version that is listed but cannot be parsed."""
        registry = ModelRegistry(tmp_path)
        first = LogisticRegressionModel(5, seed=0)
        first.bias = 1.0
        registry.save(first)

        def crash(src, dst):
            raise OSError("crashed before the rename")

        monkeypatch.setattr(mmapio.os, "replace", crash)
        with pytest.raises(OSError, match="crashed"):
            registry.save(LogisticRegressionModel(5, seed=0))
        monkeypatch.undo()

        assert not (registry.path_for(2) / CHECKPOINT_NAME).exists()
        assert registry.versions() == [1]
        latest = registry.load("latest")
        assert (latest.version, latest.model.bias) == (1, 1.0)
        assert registry.save(LogisticRegressionModel(5, seed=0)) == 2  # the next save reuses v2

    def test_weights_without_a_published_manifest_are_not_a_version(self, tmp_path, monkeypatch):
        """The weights are published first: a crash before the manifest's
        rename leaves them in a directory the registry does not list."""
        registry = ModelRegistry(tmp_path)
        first = LogisticRegressionModel(5, seed=0)
        first.bias = 1.0
        registry.save(first)
        replace = mmapio.os.replace

        def crash(src, dst):
            if dst.name == CHECKPOINT_NAME:
                raise OSError("crashed before the rename")
            replace(src, dst)

        monkeypatch.setattr(mmapio.os, "replace", crash)
        with pytest.raises(OSError, match="crashed"):
            registry.save(LogisticRegressionModel(5, seed=0))
        monkeypatch.undo()

        assert (registry.path_for(2) / "weights.npz").exists()
        assert registry.versions() == [1]
        assert registry.load("latest").model.bias == 1.0
        with pytest.raises(FileNotFoundError):
            load_checkpoint(registry.path_for(2))
