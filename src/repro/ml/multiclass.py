"""One-vs-rest multi-class classification.

The paper trains LR and SVM on multi-class datasets (Mnist has ten classes)
with the standard one-versus-the-other technique: one binary model per
class, each trained on the same compressed mini-batches with binarised
labels.  Because every per-class model reuses the same compressed batches,
multi-class training multiplies the number of matrix operations — which is
why the paper's LR/SVM speedups are smaller on Mnist than on ImageNet.
"""

from __future__ import annotations

import numpy as np

from repro.ml.models import LinearSVMModel, LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig, MiniBatchGradientDescent, TrainingHistory

#: Binary classifiers :class:`OneVsRestModel` can use per class, by spec name.
OVR_BASE_MODELS = {
    "logreg": LogisticRegressionModel,
    "logistic_regression": LogisticRegressionModel,
    "svm": LinearSVMModel,
}


class OneVsRestClassifier:
    """Train one binary model per class and predict by maximum score."""

    def __init__(self, model_factory, n_classes: int):
        if n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        self.model_factory = model_factory
        self.n_classes = int(n_classes)
        self.models = [model_factory() for _ in range(self.n_classes)]

    def fit_batches(
        self,
        batches: list[tuple[object, np.ndarray]],
        config: GradientDescentConfig | None = None,
    ) -> list[TrainingHistory]:
        """Train every per-class model on the same compressed batches."""
        optimizer = MiniBatchGradientDescent(config)
        histories = []
        for klass, model in enumerate(self.models):
            binarised = [
                (batch, (targets == klass).astype(np.float64)) for batch, targets in batches
            ]
            histories.append(optimizer.train(model, binarised))
        return histories

    def decision_scores(self, batch) -> np.ndarray:
        """Per-class raw scores, shape ``(n_rows, n_classes)``."""
        return np.column_stack([model.scores(batch) for model in self.models])

    def predict(self, batch) -> np.ndarray:
        """Predicted class labels (argmax over the per-class scores)."""
        return np.argmax(self.decision_scores(batch), axis=1).astype(np.float64)


class OneVsRestModel(OneVsRestClassifier):
    """One-vs-rest as a *single* model implementing the optimizer protocol.

    Where :class:`OneVsRestClassifier` drives its own training loop,
    this variant exposes ``gradient_step`` / ``loss`` /
    ``get_parameters`` / ``set_parameters`` over the whole per-class
    ensemble, so any consumer of the model protocol — the in-memory MGD
    loop, the out-of-core trainer, the checkpoint registry, the
    :class:`~repro.api.Estimator` facade (as the ``"ovr:<base>"`` spec) —
    trains and persists a multi-class classifier unchanged.  Each step
    binarises the integer targets once per class and updates every binary
    model on the *same* compressed batch, which is exactly the paper's
    multi-class setup (one scan of the compressed data, k-fold the matrix
    operations).
    """

    name = "one_vs_rest"
    core_ops = ("matvec", "rmatvec")

    def __init__(
        self,
        n_features: int,
        base: str = "logistic_regression",
        n_classes: int = 2,
        l2: float | None = None,
        seed: int | None = 0,
    ):
        spec = str(base).strip().lower()
        if spec not in OVR_BASE_MODELS:
            raise ValueError(
                f"unknown one-vs-rest base {base!r}; known: {sorted(OVR_BASE_MODELS)}"
            )
        base_cls = OVR_BASE_MODELS[spec]
        self.base = base_cls.name  # canonical, so checkpoints round-trip
        counter = iter(range(n_classes if n_classes >= 2 else 0))

        def factory():
            kwargs: dict = {}
            if l2 is not None:
                kwargs["l2"] = l2
            offset = next(counter)
            model_seed = None if seed is None else int(seed) + offset
            return base_cls(n_features, seed=model_seed, **kwargs)

        super().__init__(factory, n_classes)

    @property
    def n_features(self) -> int:
        return self.models[0].n_features

    @property
    def l2(self) -> float:
        return self.models[0].l2

    def _binarise(self, targets: np.ndarray, klass: int) -> np.ndarray:
        return (np.asarray(targets) == klass).astype(np.float64)

    def gradient_step(self, batch, targets: np.ndarray, learning_rate: float) -> float:
        """Step every per-class model; returns their mean pre-step loss, like :meth:`loss`."""
        return float(
            np.mean(
                [
                    model.gradient_step(batch, self._binarise(targets, klass), learning_rate)
                    for klass, model in enumerate(self.models)
                ]
            )
        )

    def loss(self, batch, targets: np.ndarray) -> float:
        return float(
            np.mean(
                [
                    model.loss(batch, self._binarise(targets, klass))
                    for klass, model in enumerate(self.models)
                ]
            )
        )

    def predict_proba(self, batch) -> np.ndarray:
        """Per-class probabilities (normalised per-model sigmoids)."""
        if not hasattr(self.models[0], "predict_proba"):
            raise AttributeError(f"base model {self.base!r} has no predict_proba")
        raw = np.column_stack([model.predict_proba(batch) for model in self.models])
        totals = raw.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return raw / totals

    def get_parameters(self) -> np.ndarray:
        """All per-class parameter vectors, concatenated in class order."""
        return np.concatenate([model.get_parameters() for model in self.models])

    def set_parameters(self, parameters: np.ndarray) -> None:
        parameters = np.asarray(parameters, dtype=np.float64).ravel()
        span = self.n_features + 1  # each binary linear model: weights + bias
        if parameters.size != span * self.n_classes:
            raise ValueError("parameter vector has the wrong length")
        for klass, model in enumerate(self.models):
            model.set_parameters(parameters[klass * span : (klass + 1) * span])
