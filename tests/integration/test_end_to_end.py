"""End-to-end integration tests across the whole stack.

These exercise the public API the way the examples and benches do:
generate data → compress mini-batches → train models → evaluate, and check
the cross-cutting guarantees (identical learning across schemes, memory
pressure behaviour, public API stability).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.bench.experiments import SIMULATED_DISK_BANDWIDTH, run_end_to_end
from repro.bench.workloads import labeled_dataset
from repro.compression.registry import available_schemes, get_scheme
from repro.data.minibatch import split_minibatches
from repro.data.registry import DATASET_PROFILES
from repro.ml.metrics import accuracy
from repro.ml.models import FeedForwardNetwork, LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig, MiniBatchGradientDescent


class TestPublicAPI:
    def test_package_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_flow(self):
        """The README quickstart in test form."""
        batch = repro.generate_dataset("census", 250, seed=0)
        toc = repro.TOCMatrix.encode(batch)
        assert toc.compression_ratio() > 1.0
        v = np.ones(batch.shape[1])
        np.testing.assert_allclose(toc.matvec(v), batch @ v, rtol=1e-9)
        assert np.array_equal(toc.to_dense(), batch)


class TestTrainingAcrossSchemes:
    @pytest.mark.parametrize("scheme_name", available_schemes())
    def test_logistic_regression_learns_on_every_scheme(self, scheme_name):
        features, labels = DATASET_PROFILES["census"].classification(400, seed=21)
        config = GradientDescentConfig(batch_size=100, epochs=5, learning_rate=0.5)
        model = LogisticRegressionModel(features.shape[1], seed=0)
        MiniBatchGradientDescent(config).fit(
            model, features, labels, scheme=get_scheme(scheme_name)
        )
        assert accuracy(model.predict(features), labels) > 0.7

    def test_all_schemes_produce_identical_models(self):
        features, labels = DATASET_PROFILES["kdd99"].classification(300, seed=22)
        config = GradientDescentConfig(batch_size=75, epochs=2, learning_rate=0.3)
        reference = None
        for scheme_name in available_schemes():
            model = LogisticRegressionModel(features.shape[1], seed=0)
            MiniBatchGradientDescent(config).fit(
                model, features, labels, scheme=get_scheme(scheme_name)
            )
            params = model.get_parameters()
            if reference is None:
                reference = params
            else:
                np.testing.assert_allclose(params, reference, rtol=1e-7, atol=1e-9)

    def test_neural_network_on_compressed_multiclass_data(self):
        features, labels = DATASET_PROFILES["mnist"].classification(300, seed=23)
        n_classes = int(labels.max()) + 1
        config = GradientDescentConfig(batch_size=100, epochs=6, learning_rate=0.5)
        model = FeedForwardNetwork(
            features.shape[1], hidden_sizes=(32,), n_classes=n_classes, seed=0
        )
        MiniBatchGradientDescent(config).fit(
            model, features, labels.astype(int), scheme=get_scheme("TOC")
        )
        assert accuracy(model.predict(features), labels) > 1.5 / n_classes


class TestMemoryPressureScenario:
    """Tables 6-7 and Figures 9-11 through the experiment that produces them."""

    def test_toc_avoids_io_that_den_pays(self):
        """The paper's core end-to-end claim as an integration test."""
        features, labels = labeled_dataset("imagenet", 500, seed=24)
        batches = split_minibatches(features, labels, batch_size=100, seed=24)
        toc_bytes = sum(get_scheme("TOC").compress(bx).nbytes for bx, _ in batches)
        den_bytes = sum(bx.size * 8 for bx, _ in batches)
        budget = 3 * toc_bytes
        assert budget < den_bytes  # the scenario only makes sense if DEN spills

        cells = {
            scheme_name: run_end_to_end(
                "imagenet", scheme_name, "LR", n_rows=500, memory_budget_bytes=budget,
                epochs=3, batch_size=100, learning_rate=0.3, seed=24,
            )
            for scheme_name in ("TOC", "DEN")
        }
        assert cells["TOC"]["fits_in_memory"] and not cells["DEN"]["fits_in_memory"]
        assert cells["TOC"]["stored_bytes"] < cells["DEN"]["stored_bytes"]
        assert cells["TOC"]["io_seconds"] < cells["DEN"]["io_seconds"] / 2

    def test_big_memory_makes_formats_equivalent_in_io(self):
        """The Figure 11 '180 GB RAM' observation: with a large enough budget
        every format trains from memory after the first epoch."""
        for scheme_name in ("TOC", "DEN"):
            one, two = (
                run_end_to_end(
                    "census", scheme_name, "LR", n_rows=300, memory_budget_bytes=10**9,
                    epochs=epochs, batch_size=75, learning_rate=0.3, seed=25,
                )
                for epochs in (1, 2)
            )
            assert one["fits_in_memory"]
            # The first epoch reads every stored byte once, through the pool...
            assert one["io_seconds"] == pytest.approx(
                one["stored_bytes"] / SIMULATED_DISK_BANDWIDTH
            )
            # ...and the second reads nothing.
            assert two["io_seconds"] == one["io_seconds"]


class TestSerialisationAcrossTheStack:
    def test_compressed_batches_survive_bytes_roundtrip_during_training(self):
        features, labels = DATASET_PROFILES["census"].classification(200, seed=26)
        batches = split_minibatches(features, labels, batch_size=50, seed=0)
        scheme = get_scheme("TOC")
        # Serialise and rebuild every batch, as the storage layer does.
        rebuilt = [
            (scheme.decompress_bytes(scheme.compress(bx).to_bytes()), by) for bx, by in batches
        ]
        direct_model = LogisticRegressionModel(features.shape[1], seed=0)
        rebuilt_model = LogisticRegressionModel(features.shape[1], seed=0)
        for (bx, by), (rx, ry) in zip(batches, rebuilt):
            direct_model.gradient_step(bx, by, 0.5)
            rebuilt_model.gradient_step(rx, ry, 0.5)
        np.testing.assert_allclose(
            rebuilt_model.get_parameters(), direct_model.get_parameters(), rtol=1e-9
        )
