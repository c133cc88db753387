"""ML models trained with MGD over compressed mini-batches.

Each model exposes

* ``scores(batch)`` — raw model outputs for a (compressed) mini-batch,
* ``gradient_step(batch, targets, learning_rate)`` — one MGD parameter
  update computed *through the compressed matrix operations*; it returns
  the batch loss at the parameters the step started from, which its own
  forward pass already gives (so recording a loss costs no extra scan),
* ``loss(batch, targets)`` and ``predict(batch)`` for evaluation.

``batch`` is anything that answers ``@`` — a
:class:`repro.compression.base.CompressedMatrix` of any scheme, a SciPy
sparse matrix, or a plain NumPy array — so the same model runs on every
scheme, including datasets whose shards mix schemes.

The mapping between models and the compressed core ops follows Table 1 of
the paper: the generalised linear models need ``A @ v`` (forward scores) and
``v @ A`` (gradient aggregation); the feed-forward network needs ``A @ M``
and ``M @ A``.  All four are written as ``@``, so the batch's own class
runs them: a compressed matrix's ``__matmul__`` / ``__rmatmul__`` call its
scheme's ``matvec`` / ``rmatvec`` / ``matmat`` / ``rmatmat``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.losses import CrossEntropyLoss, HingeLoss, LogisticLoss, SquaredLoss


class _LinearModel:
    """Shared machinery for the generalised linear models (LR / SVM / LinReg)."""

    #: Core matrix ops used, as listed in Table 1 of the paper.
    core_ops = ("matvec", "rmatvec")

    def __init__(self, n_features: int, loss, l2: float = 0.0, seed: int | None = 0):
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        rng = np.random.default_rng(seed)
        self.weights = rng.normal(scale=0.01, size=n_features)
        self.bias = 0.0
        self.loss_fn = loss
        self.l2 = float(l2)

    @property
    def n_features(self) -> int:
        return int(self.weights.size)

    def scores(self, batch) -> np.ndarray:
        """Raw scores ``A @ w + b`` via the compressed right multiplication."""
        return batch @ self.weights + self.bias

    def _loss_from_scores(self, scores: np.ndarray, targets: np.ndarray) -> float:
        value = self.loss_fn.value(scores, targets)
        if self.l2:
            value += 0.5 * self.l2 * float(self.weights @ self.weights)
        return value

    def _gradient_from_scores(
        self, batch, scores: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, float]:
        score_grad = self.loss_fn.gradient(scores, targets)
        weight_grad = score_grad @ batch
        if self.l2:
            weight_grad = weight_grad + self.l2 * self.weights
        return weight_grad, float(np.sum(score_grad))

    def loss(self, batch, targets: np.ndarray) -> float:
        return self._loss_from_scores(self.scores(batch), targets)

    def gradient(self, batch, targets: np.ndarray) -> tuple[np.ndarray, float]:
        """Gradient w.r.t. (weights, bias) using ``A @ v`` then ``v @ A``."""
        return self._gradient_from_scores(batch, self.scores(batch), targets)

    def gradient_step(self, batch, targets: np.ndarray, learning_rate: float) -> float:
        """One update from one ``A @ w`` and one ``v @ A``; returns the pre-step batch loss."""
        scores = self.scores(batch)
        loss = self._loss_from_scores(scores, targets)
        weight_grad, bias_grad = self._gradient_from_scores(batch, scores, targets)
        self.weights -= learning_rate * weight_grad
        self.bias -= learning_rate * bias_grad
        return loss

    def get_parameters(self) -> np.ndarray:
        """Flattened parameter vector (weights then bias)."""
        return np.concatenate([self.weights, [self.bias]])

    def set_parameters(self, parameters: np.ndarray) -> None:
        parameters = np.asarray(parameters, dtype=np.float64).ravel()
        if parameters.size != self.weights.size + 1:
            raise ValueError("parameter vector has the wrong length")
        self.weights = parameters[:-1].copy()
        self.bias = float(parameters[-1])


class LinearRegressionModel(_LinearModel):
    """Linear regression with mean squared loss."""

    name = "linear_regression"

    def __init__(self, n_features: int, l2: float = 0.0, seed: int | None = 0):
        super().__init__(n_features, SquaredLoss(), l2=l2, seed=seed)

    def predict(self, batch) -> np.ndarray:
        return self.scores(batch)


class LogisticRegressionModel(_LinearModel):
    """Binary logistic regression with logistic loss (labels in {0, 1})."""

    name = "logistic_regression"

    def __init__(self, n_features: int, l2: float = 0.0, seed: int | None = 0):
        super().__init__(n_features, LogisticLoss(), l2=l2, seed=seed)

    def predict_proba(self, batch) -> np.ndarray:
        return self.loss_fn.predict_proba(self.scores(batch))

    def predict(self, batch) -> np.ndarray:
        return (self.predict_proba(batch) >= 0.5).astype(np.float64)


class LinearSVMModel(_LinearModel):
    """Linear support vector machine with hinge loss (labels in {0, 1})."""

    name = "svm"

    def __init__(self, n_features: int, l2: float = 1e-4, seed: int | None = 0):
        super().__init__(n_features, HingeLoss(), l2=l2, seed=seed)

    def predict(self, batch) -> np.ndarray:
        return (self.scores(batch) >= 0.0).astype(np.float64)


class FeedForwardNetwork:
    """A feed-forward neural network with sigmoid hidden layers.

    Mirrors the paper's network: one or two hidden layers (the end-to-end
    experiments use 200 and 50 neurons), sigmoid activations, and a sigmoid
    (binary) or softmax (multi-class) output trained with cross-entropy.
    The forward pass over a compressed batch uses ``A @ M``; the backward
    pass pushes the first-layer gradient through ``M @ A`` — the two extra
    core ops of Table 1.
    """

    name = "neural_network"
    core_ops = ("matmat", "rmatmat")

    def __init__(
        self,
        n_features: int,
        hidden_sizes: tuple[int, ...] = (200, 50),
        n_classes: int = 2,
        l2: float = 0.0,
        seed: int | None = 0,
    ):
        if n_features <= 0 or n_classes < 2:
            raise ValueError("n_features must be positive and n_classes at least 2")
        if not hidden_sizes:
            raise ValueError("at least one hidden layer is required")
        rng = np.random.default_rng(seed)
        self.n_classes = int(n_classes)
        self.l2 = float(l2)
        n_outputs = self.n_classes
        sizes = [n_features, *hidden_sizes, n_outputs]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(rng.normal(scale=scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self._loss = CrossEntropyLoss()

    @property
    def n_features(self) -> int:
        return int(self.weights[0].shape[0])

    @staticmethod
    def _sigmoid(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        return out

    def _forward(self, batch) -> tuple[list[np.ndarray], np.ndarray]:
        """Return hidden activations and output scores for a batch."""
        # First layer: compressed right multiplication A @ W1.
        pre = batch @ self.weights[0] + self.biases[0]
        activations = [self._sigmoid(pre)]
        for weight, bias in zip(self.weights[1:-1], self.biases[1:-1]):
            pre = activations[-1] @ weight + bias
            activations.append(self._sigmoid(pre))
        scores = activations[-1] @ self.weights[-1] + self.biases[-1]
        return activations, scores

    def scores(self, batch) -> np.ndarray:
        return self._forward(batch)[1]

    def _loss_from_scores(self, scores: np.ndarray, targets: np.ndarray) -> float:
        value = self._loss.value(scores, targets)
        if self.l2:
            value += 0.5 * self.l2 * sum(float(np.sum(w * w)) for w in self.weights)
        return value

    def loss(self, batch, targets: np.ndarray) -> float:
        return self._loss_from_scores(self.scores(batch), targets)

    def predict(self, batch) -> np.ndarray:
        return np.argmax(self.scores(batch), axis=1).astype(np.float64)

    def gradient_step(self, batch, targets: np.ndarray, learning_rate: float) -> float:
        """One backprop + SGD update over a (compressed) mini-batch.

        Returns the batch loss at the weights the step started from, taken
        from the forward pass the backprop needs anyway.
        """
        activations, scores = self._forward(batch)
        loss = self._loss_from_scores(scores, targets)
        delta = self._loss.gradient(scores, targets)  # (n, n_classes)

        weight_grads: list[np.ndarray] = [None] * len(self.weights)
        bias_grads: list[np.ndarray] = [None] * len(self.biases)

        # Output layer and hidden-to-hidden layers use dense ops.
        for layer in range(len(self.weights) - 1, 0, -1):
            weight_grads[layer] = activations[layer - 1].T @ delta
            bias_grads[layer] = delta.sum(axis=0)
            upstream = delta @ self.weights[layer].T
            sigma = activations[layer - 1]
            delta = upstream * sigma * (1.0 - sigma)

        # First layer gradient: (delta^T @ A)^T computed with the compressed
        # left multiplication M @ A.
        weight_grads[0] = (delta.T @ batch).T
        bias_grads[0] = delta.sum(axis=0)

        for layer, (w_grad, b_grad) in enumerate(zip(weight_grads, bias_grads)):
            if self.l2:
                w_grad = w_grad + self.l2 * self.weights[layer]
            self.weights[layer] -= learning_rate * w_grad
            self.biases[layer] -= learning_rate * b_grad
        return loss

    def get_parameters(self) -> np.ndarray:
        """Flattened parameter vector (weight matrices, then biases)."""
        parts = [w.ravel() for w in self.weights] + [b.ravel() for b in self.biases]
        return np.concatenate(parts)

    def set_parameters(self, parameters: np.ndarray) -> None:
        parameters = np.asarray(parameters, dtype=np.float64).ravel()
        cursor = 0
        for i, w in enumerate(self.weights):
            size = w.size
            self.weights[i] = parameters[cursor : cursor + size].reshape(w.shape).copy()
            cursor += size
        for i, b in enumerate(self.biases):
            size = b.size
            self.biases[i] = parameters[cursor : cursor + size].copy()
            cursor += size
        if cursor != parameters.size:
            raise ValueError("parameter vector has the wrong length")
