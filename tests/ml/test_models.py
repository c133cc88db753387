"""Tests for the ML models, including the compressed-vs-dense equivalence
that makes the whole "train on compressed batches" approach sound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.registry import available_schemes, get_scheme
from repro.data.registry import DATASET_PROFILES
from repro.ml.models import (
    FeedForwardNetwork,
    LinearRegressionModel,
    LinearSVMModel,
    LogisticRegressionModel,
)

SCHEMES = available_schemes(include_ablations=True)


@pytest.fixture()
def labeled_batch():
    profile = DATASET_PROFILES["census"]
    features, labels = profile.classification(80, seed=3)
    return features, labels


class TestLinearModels:
    @pytest.mark.parametrize("model_cls", [LinearRegressionModel, LogisticRegressionModel, LinearSVMModel])
    def test_scores_shape(self, model_cls, labeled_batch):
        features, _ = labeled_batch
        model = model_cls(features.shape[1])
        assert model.scores(features).shape == (features.shape[0],)

    @pytest.mark.parametrize(
        ("model_cls", "learning_rate"),
        [
            # Squared loss has unbounded gradients on these feature scales, so
            # linear regression needs a much smaller step than LR/SVM.
            (LinearRegressionModel, 1e-3),
            (LogisticRegressionModel, 0.5),
            (LinearSVMModel, 0.5),
        ],
    )
    def test_gradient_step_reduces_loss(self, model_cls, learning_rate, labeled_batch):
        features, labels = labeled_batch
        model = model_cls(features.shape[1], seed=0)
        before = model.loss(features, labels)
        for _ in range(20):
            model.gradient_step(features, labels, learning_rate)
        assert model.loss(features, labels) < before

    def test_l2_regularisation_increases_loss(self, labeled_batch):
        features, labels = labeled_batch
        plain = LogisticRegressionModel(features.shape[1], l2=0.0, seed=0)
        regularised = LogisticRegressionModel(features.shape[1], l2=1.0, seed=0)
        # Identical weights initially, so the only difference is the penalty.
        assert regularised.loss(features, labels) > plain.loss(features, labels)

    def test_parameter_roundtrip(self, labeled_batch):
        features, _ = labeled_batch
        model = LogisticRegressionModel(features.shape[1], seed=1)
        params = model.get_parameters()
        other = LogisticRegressionModel(features.shape[1], seed=2)
        other.set_parameters(params)
        np.testing.assert_array_equal(other.get_parameters(), params)

    def test_set_parameters_wrong_length_rejected(self, labeled_batch):
        features, _ = labeled_batch
        model = LogisticRegressionModel(features.shape[1])
        with pytest.raises(ValueError):
            model.set_parameters(np.ones(3))

    def test_invalid_feature_count_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegressionModel(0)

    def test_logistic_predictions_are_binary(self, labeled_batch):
        features, labels = labeled_batch
        model = LogisticRegressionModel(features.shape[1], seed=0)
        model.gradient_step(features, labels, 0.5)
        assert set(np.unique(model.predict(features))) <= {0.0, 1.0}

    def test_svm_predictions_are_binary(self, labeled_batch):
        features, labels = labeled_batch
        model = LinearSVMModel(features.shape[1], seed=0)
        model.gradient_step(features, labels, 0.5)
        assert set(np.unique(model.predict(features))) <= {0.0, 1.0}


class TestGradientEquivalenceAcrossSchemes:
    """The central claim: training on any compressed format gives exactly the
    same parameter updates as training on the dense data."""

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_linear_gradient_identical(self, scheme_name, labeled_batch):
        features, labels = labeled_batch
        compressed = get_scheme(scheme_name).compress(features)
        dense_model = LogisticRegressionModel(features.shape[1], seed=0)
        comp_model = LogisticRegressionModel(features.shape[1], seed=0)
        dense_grad, dense_bias = dense_model.gradient(features, labels)
        comp_grad, comp_bias = comp_model.gradient(compressed, labels)
        np.testing.assert_allclose(comp_grad, dense_grad, rtol=1e-9, atol=1e-12)
        assert comp_bias == pytest.approx(dense_bias, rel=1e-9)

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_network_step_identical(self, scheme_name, labeled_batch):
        features, labels = labeled_batch
        compressed = get_scheme(scheme_name).compress(features)
        dense_model = FeedForwardNetwork(features.shape[1], hidden_sizes=(16,), seed=0)
        comp_model = FeedForwardNetwork(features.shape[1], hidden_sizes=(16,), seed=0)
        dense_model.gradient_step(features, labels.astype(int), 0.1)
        comp_model.gradient_step(compressed, labels.astype(int), 0.1)
        np.testing.assert_allclose(
            comp_model.get_parameters(), dense_model.get_parameters(), rtol=1e-9, atol=1e-12
        )

    def test_multi_step_training_identical_on_toc(self, labeled_batch):
        features, labels = labeled_batch
        compressed = get_scheme("TOC").compress(features)
        dense_model = LinearSVMModel(features.shape[1], seed=0)
        comp_model = LinearSVMModel(features.shape[1], seed=0)
        for _ in range(10):
            dense_model.gradient_step(features, labels, 0.3)
            comp_model.gradient_step(compressed, labels, 0.3)
        np.testing.assert_allclose(
            comp_model.get_parameters(), dense_model.get_parameters(), rtol=1e-8, atol=1e-10
        )


class TestFeedForwardNetwork:
    def test_output_shape_multiclass(self, labeled_batch):
        features, _ = labeled_batch
        model = FeedForwardNetwork(features.shape[1], hidden_sizes=(8, 4), n_classes=5)
        assert model.scores(features).shape == (features.shape[0], 5)

    def test_training_reduces_loss(self, labeled_batch):
        features, labels = labeled_batch
        model = FeedForwardNetwork(features.shape[1], hidden_sizes=(16,), seed=0)
        before = model.loss(features, labels.astype(int))
        for _ in range(30):
            model.gradient_step(features, labels.astype(int), 0.5)
        assert model.loss(features, labels.astype(int)) < before

    def test_predictions_in_class_range(self, labeled_batch):
        features, _ = labeled_batch
        model = FeedForwardNetwork(features.shape[1], hidden_sizes=(8,), n_classes=4)
        predictions = model.predict(features)
        assert np.all((predictions >= 0) & (predictions < 4))

    def test_parameter_roundtrip(self, labeled_batch):
        features, _ = labeled_batch
        model = FeedForwardNetwork(features.shape[1], hidden_sizes=(8, 4), seed=0)
        params = model.get_parameters()
        other = FeedForwardNetwork(features.shape[1], hidden_sizes=(8, 4), seed=99)
        other.set_parameters(params)
        np.testing.assert_array_equal(other.get_parameters(), params)

    def test_two_hidden_layers_backprop_is_finite(self, labeled_batch):
        features, labels = labeled_batch
        model = FeedForwardNetwork(features.shape[1], hidden_sizes=(12, 6), seed=0)
        for _ in range(5):
            model.gradient_step(features, labels.astype(int), 0.2)
        assert np.all(np.isfinite(model.get_parameters()))

    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError):
            FeedForwardNetwork(4, hidden_sizes=())

    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            FeedForwardNetwork(4, n_classes=1)


class TestTable1OperationUsage:
    """Executable version of Table 1: which core ops each model touches."""

    @staticmethod
    def _recording(matrix):
        """``matrix`` itself, its four product methods wrapped to note each call."""
        matrix.called = set()
        for name in ("matvec", "rmatvec", "matmat", "rmatmat"):
            def wrapper(operand, _method=getattr(matrix, name), _name=name):
                matrix.called.add(_name)
                return _method(operand)

            setattr(matrix, name, wrapper)
        return matrix

    def test_linear_models_use_vector_ops_only(self, labeled_batch):
        features, labels = labeled_batch
        for model in (
            LinearRegressionModel(features.shape[1]),
            LogisticRegressionModel(features.shape[1]),
            LinearSVMModel(features.shape[1]),
        ):
            matrix = self._recording(get_scheme("TOC").compress(features))
            model.gradient_step(matrix, labels, 0.1)
            assert matrix.called == {"matvec", "rmatvec"}

    def test_network_uses_matrix_ops(self, labeled_batch):
        features, labels = labeled_batch
        model = FeedForwardNetwork(features.shape[1], hidden_sizes=(8,))
        matrix = self._recording(get_scheme("TOC").compress(features))
        model.gradient_step(matrix, labels.astype(int), 0.1)
        assert matrix.called == {"matmat", "rmatmat"}
