"""One MGD step is one ``A @ w`` and one ``w @ A``, and the loss it records is free.

Every training loop — in-memory :meth:`MiniBatchGradientDescent.train`
and streaming ``train_streaming`` through :class:`OutOfCoreTrainer`, which
the end-to-end experiments also train through — must run exactly one compressed
``matvec`` and one ``rmatvec`` per batch per epoch on TOC batches, and record
as an epoch's loss the mean, over its batches, of the batch loss at the
weights each step started from.  The hand loop below is that definition.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.bench.experiments import run_end_to_end
from repro.compression.registry import get_scheme
from repro.core.toc import TOCMatrix
from repro.data.minibatch import split_minibatches
from repro.data.registry import DATASET_PROFILES
from repro.engine.shards import ShardedDataset
from repro.engine.trainer import OutOfCoreTrainer
from repro.ml.models import LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig, MiniBatchGradientDescent

CONFIG = GradientDescentConfig(batch_size=100, epochs=3, learning_rate=0.05, shuffle_seed=0)


@pytest.fixture(scope="module")
def data():
    return DATASET_PROFILES["census"].classification(500, seed=5)


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Count the TOC kernels every training path ends in."""
    calls: Counter = Counter()
    for name in ("matvec", "rmatvec", "matmat", "rmatmat"):
        original = getattr(TOCMatrix, name)

        def counted(self, operand, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, operand)

        monkeypatch.setattr(TOCMatrix, name, counted)
    return calls


def _hand_loop(batches, n_features: int, epochs: int, learning_rate: float) -> list[float]:
    """Epoch losses by definition: the mean of each batch's loss before its step."""
    model = LogisticRegressionModel(n_features, seed=0)
    losses = []
    for _ in range(epochs):
        before = []
        for batch, targets in batches:
            before.append(model.loss(batch, targets))
            model.gradient_step(batch, targets, learning_rate)
        losses.append(float(np.mean(before)))
    return losses


def _assert_one_pass(kernel_calls: Counter, n_batches: int, epochs: int) -> None:
    assert kernel_calls == Counter(matvec=n_batches * epochs, rmatvec=n_batches * epochs)


def test_in_memory_train(data, kernel_calls):
    features, labels = data
    optimizer = MiniBatchGradientDescent(CONFIG)
    batches = optimizer.prepare_batches(features, labels, scheme=get_scheme("TOC"))
    history = optimizer.train(LogisticRegressionModel(features.shape[1], seed=0), batches)
    _assert_one_pass(kernel_calls, len(batches), CONFIG.epochs)
    expected = _hand_loop(batches, features.shape[1], CONFIG.epochs, CONFIG.learning_rate)
    assert history.epoch_losses == pytest.approx(expected, rel=1e-12)


def test_streaming_train_through_the_out_of_core_trainer(tmp_path, data, kernel_calls):
    features, labels = data
    batches = split_minibatches(
        features, labels, batch_size=CONFIG.batch_size, seed=CONFIG.shuffle_seed
    )
    dataset = ShardedDataset.create(tmp_path, batches, "TOC", workers=1)
    trainer = OutOfCoreTrainer(CONFIG, budget_ratio=0.5)
    trainer.attach(dataset)
    report = trainer.train(LogisticRegressionModel(features.shape[1], seed=0))
    _assert_one_pass(kernel_calls, len(dataset), CONFIG.epochs)
    batches = [(dataset.decode(b), dataset.labels_for(b)) for b in range(len(dataset))]
    expected = _hand_loop(batches, features.shape[1], CONFIG.epochs, CONFIG.learning_rate)
    assert report.history.epoch_losses == pytest.approx(expected, rel=1e-12)


def test_the_end_to_end_experiment(kernel_calls):
    """Tables 6-7's experiment streams its batches through the same loop."""
    n_rows = 500
    run_end_to_end(
        "census", "TOC", "LR", n_rows=n_rows, memory_budget_bytes=10**8,
        epochs=CONFIG.epochs, batch_size=CONFIG.batch_size, learning_rate=CONFIG.learning_rate,
    )
    _assert_one_pass(kernel_calls, n_rows // CONFIG.batch_size, CONFIG.epochs)
