"""Tests for the evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.metrics import accuracy, error_rate


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 0, 1])) == 1.0

    def test_half(self):
        assert accuracy(np.array([1, 0]), np.array([1, 1])) == 0.5

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


class TestErrorRate:
    def test_is_percentage_complement_of_accuracy(self):
        predictions = np.array([1, 1, 0, 0])
        targets = np.array([1, 0, 0, 0])
        assert error_rate(predictions, targets) == pytest.approx(25.0)
