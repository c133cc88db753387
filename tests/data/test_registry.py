"""Tests for the dataset profiles (Table 5 stand-ins)."""

from __future__ import annotations

import pytest

from repro.data.registry import DATASET_PROFILES
from tests.conftest import nonzero_share


class TestDatasetProfiles:
    def test_all_six_paper_datasets_present(self):
        assert set(DATASET_PROFILES) == {"census", "imagenet", "mnist", "kdd99", "rcv1", "deep1b"}

    @pytest.mark.parametrize(
        ("name", "n_cols"),
        [("census", 68), ("imagenet", 900), ("mnist", 784), ("kdd99", 42), ("deep1b", 96)],
    )
    def test_column_counts_match_table5(self, name, n_cols):
        assert DATASET_PROFILES[name].config.n_cols == n_cols

    @pytest.mark.parametrize(
        ("name", "sparsity"),
        [("census", 0.43), ("imagenet", 0.31), ("mnist", 0.25), ("kdd99", 0.39), ("deep1b", 1.0)],
    )
    def test_sparsity_matches_table5(self, name, sparsity):
        matrix = DATASET_PROFILES[name].matrix(400, seed=0)
        assert nonzero_share(matrix) == pytest.approx(sparsity, abs=0.07)

    def test_rcv1_is_extremely_sparse(self):
        matrix = DATASET_PROFILES["rcv1"].matrix(200, seed=0)
        assert nonzero_share(matrix) < 0.01

    def test_mnist_profile_is_multiclass(self):
        assert DATASET_PROFILES["mnist"].n_classes == 10

    def test_classification_returns_aligned_labels(self):
        features, labels = DATASET_PROFILES["kdd99"].classification(50, seed=0)
        assert features.shape[0] == labels.shape[0] == 50

