"""Tests for the synthetic dataset generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import SyntheticConfig, make_classification, make_synthetic_matrix
from tests.conftest import nonzero_share


def _config(**overrides) -> SyntheticConfig:
    defaults = dict(
        n_cols=40, sparsity=0.4, n_distinct_values=10, template_fraction=0.8, n_templates=4
    )
    defaults.update(overrides)
    return SyntheticConfig(**defaults)


class TestSyntheticConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sparsity": -0.1},
            {"sparsity": 1.1},
            {"template_fraction": -0.5},
            {"template_fraction": 2.0},
            {"n_cols": 0},
            {"n_distinct_values": 0},
            {"n_templates": 0},
            {"segment_length": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            _config(**kwargs)


class TestMakeSyntheticMatrix:
    def test_shape(self):
        matrix = make_synthetic_matrix(25, _config(), seed=0)
        assert matrix.shape == (25, 40)

    def test_deterministic_with_seed(self):
        a = make_synthetic_matrix(10, _config(), seed=7)
        b = make_synthetic_matrix(10, _config(), seed=7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_synthetic_matrix(10, _config(), seed=1)
        b = make_synthetic_matrix(10, _config(), seed=2)
        assert not np.array_equal(a, b)

    def test_sparsity_close_to_target(self):
        matrix = make_synthetic_matrix(500, _config(sparsity=0.3), seed=0)
        assert nonzero_share(matrix) == pytest.approx(0.3, abs=0.08)

    def test_fully_dense_config(self):
        matrix = make_synthetic_matrix(50, _config(sparsity=1.0), seed=0)
        assert nonzero_share(matrix) == 1.0

    def test_all_zero_config(self):
        matrix = make_synthetic_matrix(50, _config(sparsity=0.0), seed=0)
        assert nonzero_share(matrix) == 0.0

    def test_value_domain_respected(self):
        matrix = make_synthetic_matrix(300, _config(n_distinct_values=5), seed=0)
        nonzero = matrix[matrix != 0]
        assert np.unique(nonzero).size <= 5

    def test_repetition_creates_compressible_structure(self):
        """High template_fraction must make TOC compress much better than
        template_fraction zero with otherwise identical knobs."""
        from repro.core.toc import TOCMatrix

        repetitive = make_synthetic_matrix(200, _config(template_fraction=1.0), seed=0)
        independent = make_synthetic_matrix(200, _config(template_fraction=0.0), seed=0)
        assert (
            TOCMatrix.encode(repetitive).compression_ratio()
            > 1.5 * TOCMatrix.encode(independent).compression_ratio()
        )

    def test_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError):
            make_synthetic_matrix(0, _config())


class TestLabeledGenerators:
    def test_binary_classification_labels(self):
        features, labels = make_classification(100, _config(), seed=0)
        assert features.shape == (100, 40)
        assert set(np.unique(labels)) <= {0.0, 1.0}

    def test_binary_labels_are_roughly_balanced(self):
        _, labels = make_classification(400, _config(), seed=0)
        assert 0.3 < labels.mean() < 0.7

    def test_multiclass_labels_in_range(self):
        _, labels = make_classification(200, _config(), n_classes=7, seed=0)
        assert labels.min() >= 0
        assert labels.max() < 7

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            make_classification(10, _config(), n_classes=1)

    def test_labels_are_learnable(self):
        """A linear model must beat chance on the generated labels."""
        from repro.ml.models import LogisticRegressionModel

        features, labels = make_classification(300, _config(), seed=0)
        model = LogisticRegressionModel(features.shape[1], seed=0)
        for _ in range(50):
            model.gradient_step(features, labels, 0.5)
        assert np.mean(model.predict(features) == labels) > 0.7


class TestSyntheticProperties:
    @given(
        sparsity=st.floats(0.05, 0.95),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_sparsity_tracks_parameter(self, sparsity, seed):
        config = _config(sparsity=sparsity, template_fraction=0.5)
        matrix = make_synthetic_matrix(300, config, seed=seed)
        assert nonzero_share(matrix) == pytest.approx(sparsity, abs=0.12)
