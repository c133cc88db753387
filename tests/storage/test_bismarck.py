"""Tests for the Bismarck-style in-database training session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.registry import get_scheme
from repro.data.minibatch import split_minibatches
from repro.data.registry import DATASET_PROFILES
from repro.ml.models import LogisticRegressionModel
from repro.storage.bismarck import BismarckSession
from repro.storage.buffer_pool import BufferPool


@pytest.fixture()
def batches():
    features, labels = DATASET_PROFILES["census"].classification(300, seed=13)
    return split_minibatches(features, labels, batch_size=50, seed=0)


def _total_loss(model, batches) -> float:
    return sum(model.loss(features, labels) for features, labels in batches)


class TestBismarckSession:
    def test_training_reduces_loss(self, batches):
        session = BismarckSession(get_scheme("TOC"), BufferPool(budget_bytes=10**8))
        session.load(batches)
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        initial = _total_loss(model, batches)
        report = session.train(model, epochs=4, learning_rate=0.05)
        assert _total_loss(model, batches) < initial
        assert report.epochs[-1].mean_loss < report.epochs[0].mean_loss
        assert report.total_seconds > 0

    def test_an_oscillating_step_size_is_reported_as_it_runs(self, batches):
        # The census features are unscaled: at 0.5 the steps overshoot, the
        # summed loss at each epoch's end weights goes 4.4 -> 116 -> 11 -> 59
        # -> 19, and ``mean_loss`` (pre-step batch losses) goes 15.1, 9.7,
        # 3.4, 15.9.  The report must show that run, not a smoothed one.
        session = BismarckSession(get_scheme("TOC"), BufferPool(budget_bytes=10**8))
        session.load(batches)
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        initial = _total_loss(model, batches)
        report = session.train(model, epochs=4, learning_rate=0.5)

        reference = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        expected = []
        for _ in range(4):
            before = []
            for features, labels in session.table.iter_batches():
                before.append(reference.loss(features, labels))
                reference.gradient_step(features, labels, 0.5)
            expected.append(np.mean(before))
        assert [epoch.mean_loss for epoch in report.epochs] == pytest.approx(expected)
        assert _total_loss(model, batches) > initial

    def test_requires_registration_before_epoch(self, batches):
        session = BismarckSession(get_scheme("TOC"), BufferPool(budget_bytes=10**8))
        session.load(batches)
        model = LogisticRegressionModel(batches[0][0].shape[1])
        with pytest.raises(RuntimeError):
            session.run_epoch(model, 0.1)

    def test_invalid_epochs_rejected(self, batches):
        session = BismarckSession(get_scheme("TOC"), BufferPool(budget_bytes=10**8))
        session.load(batches)
        with pytest.raises(ValueError):
            session.train(LogisticRegressionModel(batches[0][0].shape[1]), epochs=0, learning_rate=0.1)

    def test_model_state_persists_in_arena(self, batches):
        session = BismarckSession(get_scheme("TOC"), BufferPool(budget_bytes=10**8))
        session.load(batches)
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        session.register_model(model)
        session.run_epoch(model, 0.5)
        stored = session.arena.read(BismarckSession.MODEL_SEGMENT)
        np.testing.assert_array_equal(stored, model.get_parameters())

    def test_same_result_as_plain_training(self, batches):
        """The in-database loop must produce exactly the same model as the
        plain Python loop over the same compressed batches (same order)."""
        n_features = batches[0][0].shape[1]

        session = BismarckSession(get_scheme("TOC"), BufferPool(budget_bytes=10**8))
        session.load(batches)
        db_model = LogisticRegressionModel(n_features, seed=0)
        session.train(db_model, epochs=2, learning_rate=0.5)

        plain_model = LogisticRegressionModel(n_features, seed=0)
        compressed = [(get_scheme("TOC").compress(bx), by) for bx, by in batches]
        for _ in range(2):
            for batch, labels in compressed:
                plain_model.gradient_step(batch, labels, 0.5)

        np.testing.assert_allclose(
            db_model.get_parameters(), plain_model.get_parameters(), rtol=1e-8, atol=1e-10
        )

    def test_io_charged_only_when_spilling(self, batches):
        big_pool = BufferPool(budget_bytes=10**9)
        session = BismarckSession(get_scheme("TOC"), big_pool)
        session.load(batches)
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        report = session.train(model, epochs=3, learning_rate=0.1)
        # After the cold first epoch everything is cached: later epochs do no IO.
        assert report.epochs[0].io_seconds > 0
        assert report.epochs[1].io_seconds == 0
        assert report.epochs[2].io_seconds == 0

    def test_spilling_costs_io_every_epoch(self, batches):
        toc_scheme = get_scheme("TOC")
        total_compressed = sum(toc_scheme.compress(bx).nbytes for bx, _ in batches)
        tight_pool = BufferPool(budget_bytes=max(total_compressed // 3, 1))
        session = BismarckSession(toc_scheme, tight_pool)
        session.load(batches)
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        report = session.train(model, epochs=3, learning_rate=0.1)
        assert all(epoch.io_seconds > 0 for epoch in report.epochs)

    def test_toc_does_less_io_than_den_under_same_budget(self, batches):
        """The mechanism behind Tables 6/7: with a budget sized between the TOC
        and DEN footprints, TOC trains from memory while DEN keeps spilling."""
        toc_scheme = get_scheme("TOC")
        toc_bytes = sum(toc_scheme.compress(bx).nbytes for bx, _ in batches)
        budget = 4 * toc_bytes

        def run(scheme_name: str) -> float:
            pool = BufferPool(budget_bytes=budget)
            session = BismarckSession(get_scheme(scheme_name), pool)
            session.load(batches)
            model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
            report = session.train(model, epochs=3, learning_rate=0.1)
            return report.total_io_seconds

        assert run("TOC") < run("DEN")
