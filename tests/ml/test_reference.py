"""Tests for Figure 2's uncompressed gradient-descent loop."""

from __future__ import annotations

from repro.data.registry import DATASET_PROFILES
from repro.ml.reference import gradient_descent_spectrum


class TestReferenceLoops:
    def test_spectrum_returns_one_accuracy_per_epoch(self):
        features, labels = DATASET_PROFILES["census"].classification(120, seed=4)
        accuracies = gradient_descent_spectrum(features, labels, batch_size=30, epochs=5)
        assert len(accuracies) == 5
        assert all(0.0 <= a <= 1.0 for a in accuracies)

    def test_mgd_converges_faster_than_bgd_early_on(self):
        """The Figure 2 shape: per epoch, MGD makes more progress than BGD
        because it takes many more update steps."""
        features, labels = DATASET_PROFILES["census"].classification(600, seed=6)
        mgd = gradient_descent_spectrum(features, labels, batch_size=50, epochs=3)
        bgd = gradient_descent_spectrum(features, labels, batch_size=600, epochs=3)
        assert mgd[-1] >= bgd[-1]
