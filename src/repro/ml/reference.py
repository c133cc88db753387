"""The uncompressed NumPy gradient-descent loop of Figure 2.

Figure 2 compares the optimisers of the MGD spectrum — SGD, mini-batch GD
and batch GD — by their per-epoch accuracy.  That comparison is about the
optimiser, not the storage format, so the loop here runs directly on a dense
NumPy matrix and shares no code with the compressed training path.
"""

from __future__ import annotations

import numpy as np

from repro.ml.losses import LogisticLoss


def gradient_descent_spectrum(
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    epochs: int,
    learning_rate: float = 0.5,
    seed: int | None = 0,
) -> list[float]:
    """Per-epoch accuracy of logistic MGD with an arbitrary batch size.

    Setting ``batch_size=1`` yields SGD and ``batch_size=n_rows`` yields BGD,
    reproducing the spectrum of Figure 2 with a logistic model (the paper
    uses a small neural network; the convergence-stability trade-off between
    the variants is the property being shown and is model-agnostic).
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).ravel()
    rng = np.random.default_rng(seed)
    order = rng.permutation(x.shape[0])
    x, y = x[order], y[order]
    weights = np.zeros(x.shape[1])
    bias = 0.0
    loss = LogisticLoss()
    accuracies: list[float] = []
    for _ in range(epochs):
        for start in range(0, x.shape[0], batch_size):
            bx = x[start : start + batch_size]
            by = y[start : start + batch_size]
            grad_scores = loss.gradient(bx @ weights + bias, by)
            weights -= learning_rate * (grad_scores @ bx)
            bias -= learning_rate * float(grad_scores.sum())
        predictions = (loss.predict_proba(x @ weights + bias) >= 0.5).astype(np.float64)
        accuracies.append(float(np.mean(predictions == y)))
    return accuracies
