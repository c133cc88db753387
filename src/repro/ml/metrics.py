"""Evaluation metrics for the MGD experiments."""

from __future__ import annotations

import numpy as np


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of predictions equal to the targets."""
    p = np.asarray(predictions).ravel()
    t = np.asarray(targets).ravel()
    if p.size != t.size:
        raise ValueError("predictions and targets must have the same length")
    if p.size == 0:
        raise ValueError("cannot compute accuracy of an empty prediction set")
    return float(np.mean(p == t))


def error_rate(predictions: np.ndarray, targets: np.ndarray) -> float:
    """1 - accuracy, reported as a percentage like the paper's Figure 11."""
    return 100.0 * (1.0 - accuracy(predictions, targets))
