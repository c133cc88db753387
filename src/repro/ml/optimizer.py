"""Mini-batch stochastic gradient descent (the paper's Equation 2).

The optimizer covers the whole gradient-descent spectrum by varying the
mini-batch size: one row per batch is SGD, the whole dataset is BGD, and
anything in between is MGD (Section 2.1.2).  Batches are compressed once
with the chosen scheme (shuffle-once, Section 2.1.3) and revisited every
epoch; the per-batch update is delegated to the model's ``gradient_step``,
which routes all linear algebra through the compressed matrix operations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.compression.base import CompressedMatrix
from repro.data.minibatch import split_minibatches


@dataclass
class GradientDescentConfig:
    """Hyper-parameters of the MGD loop."""

    batch_size: int = 250
    epochs: int = 10
    learning_rate: float = 0.1
    learning_rate_decay: float = 1.0
    shuffle_seed: int | None = 0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 < self.learning_rate_decay <= 1.0:
            raise ValueError("learning_rate_decay must be in (0, 1]")


@dataclass
class TrainingHistory:
    """Per-epoch record of the training run.

    ``epoch_losses[e]`` is the mean over epoch ``e``'s batches of each batch's
    loss at the weights its step started from (see
    :meth:`MiniBatchGradientDescent.train_streaming`).
    """

    epoch_losses: list[float] = field(default_factory=list)
    epoch_times: list[float] = field(default_factory=list)
    epoch_metrics: list[float] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return float(sum(self.epoch_times))

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs recorded")
        return self.epoch_losses[-1]


class MiniBatchGradientDescent:
    """The MGD training loop over compressed mini-batches."""

    def __init__(self, config: GradientDescentConfig | None = None):
        self.config = config or GradientDescentConfig()

    def prepare_batches(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        scheme: type[CompressedMatrix] | None = None,
    ) -> list[tuple[object, np.ndarray]]:
        """Shuffle once, split, and compress every mini-batch with ``scheme``.

        With ``scheme=None`` the raw NumPy batches are returned (useful for
        testing and for the uncompressed reference loops).
        """
        raw_batches = split_minibatches(
            features,
            labels,
            batch_size=self.config.batch_size,
            shuffle=True,
            seed=self.config.shuffle_seed,
        )
        prepared = []
        for batch_x, batch_y in raw_batches:
            compressed = scheme.compress(batch_x) if scheme is not None else batch_x
            prepared.append((compressed, batch_y))
        return prepared

    def train(
        self,
        model,
        batches: list[tuple[object, np.ndarray]],
        eval_fn=None,
    ) -> TrainingHistory:
        """Run the configured number of epochs over pre-compressed batches.

        ``eval_fn(model) -> float`` is called after every epoch when given
        (for instance a held-out error rate) and its values are recorded in
        ``history.epoch_metrics``.  Epoch losses are defined as in
        :meth:`train_streaming`.
        """
        if not batches:
            raise ValueError("at least one mini-batch is required")
        return self.train_streaming(model, lambda: batches, eval_fn=eval_fn)

    def train_streaming(
        self,
        model,
        epoch_batches,
        eval_fn=None,
    ) -> TrainingHistory:
        """Run the configured epochs over a re-creatable stream of batches.

        ``epoch_batches()`` is called once per epoch and must return an
        iterable of ``(batch, targets)`` pairs, each visited exactly once.

        An epoch's loss is the mean, over its batches, of what each
        ``gradient_step`` returns: the batch loss at the weights that step
        started from, read off the step's own forward pass.  That is the
        running loss the Keras and PyTorch training loops report; it trails
        the end-of-epoch weights by up to one epoch of updates, and it costs
        no second ``A @ w`` per batch and no second sweep, which for an
        out-of-core stream would double the IO.
        """
        history = TrainingHistory()
        learning_rate = self.config.learning_rate
        for _epoch in range(self.config.epochs):
            start = time.perf_counter()
            losses = [
                model.gradient_step(batch, targets, learning_rate)
                for batch, targets in epoch_batches()
            ]
            elapsed = time.perf_counter() - start
            if not losses:
                raise ValueError("epoch_batches() produced no mini-batches")
            history.epoch_losses.append(float(np.mean(losses)))
            history.epoch_times.append(elapsed)
            if eval_fn is not None:
                history.epoch_metrics.append(float(eval_fn(model)))
            learning_rate *= self.config.learning_rate_decay
        return history

    def fit(
        self,
        model,
        features: np.ndarray,
        labels: np.ndarray,
        scheme: type[CompressedMatrix] | None = None,
        eval_fn=None,
    ) -> TrainingHistory:
        """Convenience wrapper: prepare batches then train."""
        batches = self.prepare_batches(features, labels, scheme=scheme)
        return self.train(model, batches, eval_fn=eval_fn)
