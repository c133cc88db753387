"""Tests for the :class:`repro.api.Estimator` facade."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Dataset, Estimator
from repro.data.registry import DATASET_PROFILES
from repro.ml.models import FeedForwardNetwork, LogisticRegressionModel
from repro.serve.checkpoint import CHECKPOINT_NAME


@pytest.fixture(scope="module")
def census():
    return DATASET_PROFILES["census"].classification(400, seed=3)


@pytest.fixture()
def dataset(tmp_path, census):
    features, labels = census
    return Dataset.create(
        tmp_path / "shards", features, labels, scheme="auto", batch_size=100,
        workers=1,
    )


class TestConstruction:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            Estimator("decision_tree")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown compression scheme"):
            Estimator("logreg", scheme="LZ77")

    def test_bad_hyperparameters_fail_fast(self):
        with pytest.raises(ValueError):
            Estimator("logreg", epochs=0)

    def test_model_instance_is_trained_in_place(self, census):
        features, labels = census
        model = LogisticRegressionModel(features.shape[1], seed=0)
        estimator = Estimator(model, scheme="TOC", epochs=1, learning_rate=0.3)
        estimator.fit(features, labels)
        assert estimator.model is model  # not silently rebuilt

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            Estimator("logreg", workload="oltp")

    def test_workload_defaults_to_train_and_round_trips(self):
        estimator = Estimator("logreg")
        assert estimator.workload == "train"
        assert estimator.get_params()["workload"] == "train"

    def test_null_workload_rejected(self):
        # One ranking: there is no ratio-only advisor for None to select.
        with pytest.raises(ValueError, match="unknown workload None"):
            Estimator("logreg", workload=None)

    def test_auto_scheme_with_workload_trains_in_memory(self, census):
        features, labels = census
        report = Estimator(
            "logreg", scheme="auto", workload="train", epochs=1, learning_rate=0.3
        ).fit(features, labels)
        assert report.backend == "in-memory"
        assert np.isfinite(report.final_loss)


class TestRouting:
    def test_arrays_train_in_memory(self, census):
        features, labels = census
        report = Estimator("logreg", scheme="TOC", epochs=2, learning_rate=0.3).fit(
            features, labels
        )
        assert report.backend == "in-memory"
        assert report.ooc is None
        assert report.n_examples == features.shape[0]
        assert np.isfinite(report.final_loss)

    def test_dataset_trains_out_of_core(self, dataset):
        report = Estimator("logreg", epochs=2, learning_rate=0.3).fit(dataset)
        assert report.backend == "out-of-core"
        assert report.ooc is not None
        assert report.dataset is dataset

    def test_shard_dir_routes_arrays_out_of_core(self, tmp_path, census):
        features, labels = census
        report = Estimator(
            "logreg", scheme="TOC", epochs=1, learning_rate=0.3, workers=1
        ).fit(features, labels, shard_dir=tmp_path / "spill")
        assert report.backend == "out-of-core"
        assert (tmp_path / "spill" / "manifest.json").exists()
        assert report.dataset.stats().scheme_counts == {"TOC": 2}

    def test_path_input_opens_the_dataset(self, dataset):
        report = Estimator("logreg", epochs=1, learning_rate=0.3).fit(str(dataset.path))
        assert report.backend == "out-of-core"

    def test_missing_path_fails_cleanly(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            Estimator("logreg").fit(tmp_path / "nope")

    def test_dataset_with_labels_rejected(self, dataset):
        with pytest.raises(ValueError, match="inside a Dataset"):
            Estimator("logreg").fit(dataset, np.zeros(400))

    def test_scipy_sparse_trains_in_memory(self, census):
        features, labels = census
        report = Estimator("logreg", epochs=1, learning_rate=0.3).fit(
            sp.csr_matrix(features), labels
        )
        assert report.backend == "in-memory"
        assert np.isfinite(report.final_loss)

    def test_array_without_labels_rejected(self, census):
        with pytest.raises(ValueError, match="labels"):
            Estimator("logreg").fit(census[0])

    def test_shard_dir_without_labels_rejected(self, tmp_path, census):
        with pytest.raises(ValueError, match="labels"):
            Estimator("logreg").fit(census[0], shard_dir=tmp_path / "spill")


class TestTrainingBehaviour:
    def test_compressed_training_matches_dense(self, census):
        """The paper's core claim through the facade: TOC training is exact."""
        features, labels = census
        kwargs = dict(epochs=2, learning_rate=0.3, batch_size=100, seed=0)
        toc = Estimator("logreg", scheme="TOC", **kwargs)
        raw = Estimator("logreg", scheme=None, **kwargs)
        toc.fit(features, labels)
        raw.fit(features, labels)
        np.testing.assert_allclose(
            toc.model.get_parameters(), raw.model.get_parameters()
        )

    def test_fit_resets_spec_built_model(self, census):
        features, labels = census
        estimator = Estimator("logreg", scheme="TOC", epochs=1, learning_rate=0.3)
        estimator.fit(features, labels)
        first = estimator.model.get_parameters().copy()
        estimator.fit(features, labels)
        np.testing.assert_allclose(estimator.model.get_parameters(), first)

    def test_partial_fit_continues(self, census):
        features, labels = census
        estimator = Estimator("logreg", scheme="TOC", epochs=1, learning_rate=0.3)
        report = estimator.partial_fit(features, labels)
        assert report.epochs == 1
        before = estimator.model.get_parameters().copy()
        estimator.partial_fit(features, labels, epochs=2)
        assert not np.allclose(before, estimator.model.get_parameters())

    def test_partial_fit_over_dataset(self, dataset):
        estimator = Estimator("logreg", learning_rate=0.3)
        first = estimator.partial_fit(dataset)
        second = estimator.partial_fit(dataset)
        assert first.backend == second.backend == "out-of-core"

    def test_ffnn_spec(self, census):
        features, labels = census
        estimator = Estimator(
            "ffnn", scheme="TOC", hidden_sizes=(16,), n_classes=2,
            epochs=1, learning_rate=0.5, batch_size=100,
        )
        estimator.fit(features, labels.astype(int))
        assert isinstance(estimator.model, FeedForwardNetwork)
        assert set(np.unique(estimator.predict(features))) <= {0.0, 1.0}

    def test_eval_fn_recorded(self, census):
        features, labels = census
        report = Estimator("logreg", scheme="TOC", epochs=2, learning_rate=0.3).fit(
            features, labels, eval_fn=lambda model: 0.5
        )
        assert report.history.epoch_metrics == [0.5, 0.5]


class TestPrediction:
    def test_predict_before_fit_rejected(self, census):
        with pytest.raises(RuntimeError, match="fit"):
            Estimator("logreg").predict(census[0])

    def test_predict_dataset_matches_array_predictions(self, census, dataset):
        estimator = Estimator("logreg", epochs=2, learning_rate=0.3)
        estimator.fit(dataset)
        from_shards = estimator.predict(dataset)
        assert from_shards.shape == (dataset.n_examples,)
        # Same rows through the dense path agree exactly.
        dense = np.concatenate([m.to_dense() for m, _ in dataset.batches()])
        np.testing.assert_array_equal(from_shards, estimator.predict(dense))

    def test_predict_proba_routes_or_raises(self, census):
        features, labels = census
        logreg = Estimator("logreg", scheme="TOC", epochs=1, learning_rate=0.3)
        logreg.fit(features, labels)
        proba = logreg.predict_proba(features)
        assert np.all((proba >= 0) & (proba <= 1))
        svm = Estimator("svm", scheme="TOC", epochs=1, learning_rate=0.3)
        svm.fit(features, labels)
        with pytest.raises(AttributeError):
            svm.predict_proba(features)


class TestPersistence:
    def test_save_before_fit_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="fit"):
            Estimator("logreg").save(tmp_path)

    def test_save_load_round_trip_with_api_meta(self, tmp_path, census, dataset):
        features, _ = census
        estimator = Estimator("logreg", epochs=2, learning_rate=0.3, batch_size=100)
        estimator.fit(dataset)
        version, path = estimator.save(tmp_path / "registry")
        assert version == 1
        assert path.exists()

        loaded = Estimator.load(tmp_path / "registry")
        assert loaded.checkpoint.format_version == 2
        assert loaded.checkpoint.api_meta["estimator"]["model"] == "logistic_regression"
        assert loaded.checkpoint.api_meta["fit"]["backend"] == "out-of-core"
        assert loaded.checkpoint.dataset_meta["shard_dir"] == str(dataset.path.resolve())
        assert loaded.epochs == 2
        assert loaded.batch_size == 100
        np.testing.assert_array_equal(
            loaded.predict(features), estimator.predict(features)
        )

    def test_checkpoint_recording_prefetch_depth_loads_fits_and_predicts(
        self, tmp_path, census, dataset
    ):
        """Checkpoints saved while ``prefetch_depth`` existed still load."""
        features, _ = census
        estimator = Estimator("logreg", epochs=1, learning_rate=0.3, batch_size=100)
        estimator.fit(dataset)
        _, path = estimator.save(tmp_path / "registry")
        manifest = json.loads((path / CHECKPOINT_NAME).read_text())
        manifest["api"]["estimator"]["prefetch_depth"] = 2
        (path / CHECKPOINT_NAME).write_text(json.dumps(manifest))

        loaded = Estimator.load(tmp_path / "registry")
        assert "prefetch_depth" not in loaded.get_params()
        np.testing.assert_array_equal(loaded.predict(features), estimator.predict(features))
        loaded.fit(dataset)
        np.testing.assert_allclose(
            loaded.model.get_parameters(), estimator.model.get_parameters()
        )
        np.testing.assert_array_equal(loaded.predict(features), estimator.predict(features))

    def test_checkpoint_recording_the_encode_executor_loads_and_fits(
        self, tmp_path, census, dataset
    ):
        """Checkpoints saved while the ``executor`` knob existed still load."""
        features, _ = census
        estimator = Estimator("logreg", epochs=1, learning_rate=0.3, batch_size=100, workers=1)
        estimator.fit(dataset)
        _, path = estimator.save(tmp_path / "registry")
        manifest = json.loads((path / CHECKPOINT_NAME).read_text())
        manifest["api"]["estimator"]["executor"] = "process"
        (path / CHECKPOINT_NAME).write_text(json.dumps(manifest))

        loaded = Estimator.load(tmp_path / "registry")
        assert "executor" not in loaded.get_params()
        assert loaded.workers == 1
        np.testing.assert_array_equal(loaded.predict(features), estimator.predict(features))
        loaded.fit(dataset)
        np.testing.assert_allclose(
            loaded.model.get_parameters(), estimator.model.get_parameters()
        )

    def test_checkpoint_recording_the_disk_bandwidth_loads_and_fits(
        self, tmp_path, census, dataset
    ):
        """Checkpoints saved while the simulated disk bandwidth knob existed still load."""
        features, _ = census
        estimator = Estimator("logreg", epochs=1, learning_rate=0.3, batch_size=100)
        estimator.fit(dataset)
        _, path = estimator.save(tmp_path / "registry")
        manifest = json.loads((path / CHECKPOINT_NAME).read_text())
        manifest["api"]["estimator"]["disk_bandwidth_bytes_per_sec"] = 150e6
        (path / CHECKPOINT_NAME).write_text(json.dumps(manifest))

        loaded = Estimator.load(tmp_path / "registry")
        assert "disk_bandwidth_bytes_per_sec" not in loaded.get_params()
        assert loaded.get_params() == estimator.get_params()
        np.testing.assert_array_equal(loaded.predict(features), estimator.predict(features))
        loaded.fit(dataset)
        np.testing.assert_allclose(
            loaded.model.get_parameters(), estimator.model.get_parameters()
        )

    def test_the_disk_bandwidth_is_not_a_parameter(self):
        with pytest.raises(TypeError, match="disk_bandwidth_bytes_per_sec"):
            Estimator("logreg", disk_bandwidth_bytes_per_sec=20e6)

    def test_checkpoint_recording_a_null_workload_loads_and_fits(
        self, tmp_path, census, dataset
    ):
        """Checkpoints saved while ``workload=None`` meant "rank by ratio" still load."""
        features, _ = census
        estimator = Estimator("logreg", epochs=1, learning_rate=0.3, batch_size=100)
        estimator.fit(dataset)
        _, path = estimator.save(tmp_path / "registry")
        manifest = json.loads((path / CHECKPOINT_NAME).read_text())
        manifest["api"]["estimator"]["workload"] = None
        (path / CHECKPOINT_NAME).write_text(json.dumps(manifest))

        loaded = Estimator.load(tmp_path / "registry")
        assert loaded.workload == "train"
        np.testing.assert_array_equal(loaded.predict(features), estimator.predict(features))
        loaded.fit(dataset)
        np.testing.assert_allclose(
            loaded.model.get_parameters(), estimator.model.get_parameters()
        )

    def test_loaded_estimator_continues_training(self, tmp_path, census):
        features, labels = census
        estimator = Estimator("logreg", scheme="TOC", epochs=1, learning_rate=0.3)
        estimator.fit(features, labels)
        estimator.save(tmp_path / "registry")

        loaded = Estimator.load(tmp_path / "registry")
        before = loaded.model.get_parameters().copy()
        loaded.partial_fit(features, labels)
        assert not np.allclose(before, loaded.model.get_parameters())

    def test_loaded_estimator_fit_trains_from_scratch(self, tmp_path, census):
        """fit() means "from scratch" even after load(); no silent warm start."""
        features, labels = census
        estimator = Estimator("logreg", scheme="TOC", epochs=2, learning_rate=0.3)
        estimator.fit(features, labels)
        estimator.save(tmp_path / "registry")

        loaded = Estimator.load(tmp_path / "registry")
        loaded.fit(features, labels)
        fresh = Estimator("logreg", scheme="TOC", epochs=2, learning_rate=0.3)
        fresh.fit(features, labels)
        np.testing.assert_allclose(
            loaded.model.get_parameters(), fresh.model.get_parameters()
        )

    def test_loaded_ffnn_refits_with_checkpointed_shape(self, tmp_path, census):
        features, labels = census
        estimator = Estimator(
            "ffnn", scheme="TOC", hidden_sizes=(16,), n_classes=2,
            epochs=1, learning_rate=0.5, batch_size=100,
        )
        estimator.fit(features, labels.astype(int))
        estimator.save(tmp_path / "registry")

        loaded = Estimator.load(tmp_path / "registry")
        loaded.fit(features, labels.astype(int))
        assert [w.shape for w in loaded.model.weights] == [
            w.shape for w in estimator.model.weights
        ]


class TestMulticlassSpec:
    """``"ovr:<base>"`` routes one-vs-rest through the facade end to end."""

    def _data(self, k=3, n=240, d=8, seed=4):
        rng = np.random.default_rng(seed)
        centers = rng.normal(scale=2.0, size=(k, d))
        labels = rng.integers(0, k, size=n)
        features = centers[labels] + rng.normal(scale=0.4, size=(n, d))
        return features, labels.astype(np.float64)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="one-vs-rest base"):
            Estimator("ovr:linreg")
        with pytest.raises(ValueError, match="'ovr:<base>'"):
            Estimator("ovrlogreg")

    def test_in_memory_multiclass_fit_predict(self):
        features, labels = self._data()
        estimator = Estimator(
            "ovr:logreg", n_classes=3, epochs=12, learning_rate=0.2, scheme=None
        )
        report = estimator.fit(features, labels)
        assert report.backend == "in-memory"
        assert (estimator.predict(features) == labels).mean() > 0.8
        proba = estimator.predict_proba(features)
        assert proba.shape == (features.shape[0], 3)

    def test_out_of_core_multiclass(self, tmp_path):
        features, labels = self._data()
        dataset = Dataset.create(
            tmp_path / "shards", features, labels, batch_size=60, workers=1
        )
        estimator = Estimator("ovr:svm", n_classes=3, epochs=12, learning_rate=0.1)
        report = estimator.fit(dataset)
        assert report.backend == "out-of-core"
        assert (estimator.predict(dataset) == dataset.labels()).mean() > 0.8

    def test_save_load_round_trips_spec(self, tmp_path):
        features, labels = self._data()
        estimator = Estimator(
            "ovr:logreg", n_classes=3, epochs=8, learning_rate=0.2, scheme=None
        )
        estimator.fit(features, labels)
        assert estimator.get_params()["model"] == "ovr:logistic_regression"
        estimator.save(tmp_path / "registry")
        loaded = Estimator.load(tmp_path / "registry")
        assert loaded.get_params()["model"] == "ovr:logistic_regression"
        assert loaded.n_classes == 3
        np.testing.assert_array_equal(
            loaded.predict(features), estimator.predict(features)
        )
        # fit() after load still means "from scratch" with the same spec.
        refit = loaded.fit(features, labels)
        assert refit.backend == "in-memory"
        assert (loaded.predict(features) == labels).mean() > 0.8
