"""End-to-end tests for the out-of-core training engine."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.compression.registry import get_scheme
from repro.data.minibatch import split_minibatches
from repro.data.registry import DATASET_PROFILES
from repro.engine.shards import Dataset
from repro.engine.trainer import OutOfCoreTrainer
from repro.ml.models import LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig, MiniBatchGradientDescent


@pytest.fixture(scope="module")
def dataset():
    return DATASET_PROFILES["census"].classification(600, seed=3)


@pytest.fixture(scope="module")
def config():
    return GradientDescentConfig(batch_size=100, epochs=2, learning_rate=0.3, shuffle_seed=0)


def _shard(directory, features, labels, config, scheme="TOC") -> Dataset:
    """Shuffle once with the config's seed and encode in this process."""
    batches = split_minibatches(
        features, labels, batch_size=config.batch_size, shuffle=True,
        seed=config.shuffle_seed,
    )
    return Dataset.create(directory, batches, scheme=scheme, workers=1)


def _attached(directory, dataset, config, **budget) -> OutOfCoreTrainer:
    trainer = OutOfCoreTrainer(config, **budget)
    trainer.attach(_shard(directory, *dataset, config))
    return trainer


class TestOutOfCoreTrainer:
    def test_two_epoch_convergence_matches_in_memory_reference(self, tmp_path, dataset, config):
        """Same seed, same batches: OOC training equals the in-memory loop."""
        features, labels = dataset

        reference = LogisticRegressionModel(features.shape[1], seed=0)
        ref_history = MiniBatchGradientDescent(config).fit(
            reference, features, labels, scheme=get_scheme("TOC")
        )

        trainer = _attached(tmp_path, dataset, config, budget_ratio=0.5)
        model = LogisticRegressionModel(features.shape[1], seed=0)
        report = trainer.train(model)

        np.testing.assert_allclose(model.get_parameters(), reference.get_parameters())
        assert report.history.epoch_losses[-1] < report.history.epoch_losses[0]
        # Both loops record each step's pre-step loss, so the histories agree too.
        assert report.history.epoch_losses == pytest.approx(ref_history.epoch_losses)
        assert model.loss(features, labels) == pytest.approx(reference.loss(features, labels))

    @pytest.mark.parametrize("scheme", ["TOC", "CSR", "DEN"])
    def test_dataset_larger_than_pool_spills(self, tmp_path, dataset, config, scheme):
        trainer = OutOfCoreTrainer(config, budget_ratio=0.5)
        trainer.attach(_shard(tmp_path, *dataset, config, scheme=scheme))
        report = trainer.train(LogisticRegressionModel(dataset[0].shape[1], seed=0))

        assert not report.fits_in_memory
        assert report.pool_stats.evictions > 0
        # LRU over a cyclic epoch at half the payload misses every access:
        # each epoch reads every shard file again.
        assert report.pool_stats.hits == 0
        assert report.pool_stats.misses == config.epochs * len(trainer.dataset)
        assert report.pool_stats.bytes_read_from_disk == (
            config.epochs * report.total_payload_bytes
        )

    @pytest.mark.parametrize("scheme", ["TOC", "CSR", "DEN"])
    def test_generous_pool_hits_after_first_epoch(self, tmp_path, dataset, config, scheme):
        trainer = OutOfCoreTrainer(config, budget_ratio=10.0)
        trainer.attach(_shard(tmp_path, *dataset, config, scheme=scheme))
        report = trainer.train(LogisticRegressionModel(dataset[0].shape[1], seed=0))

        assert report.fits_in_memory
        n = len(trainer.dataset)
        assert report.pool_stats.misses == n  # first epoch only
        assert report.pool_stats.hits == (config.epochs - 1) * n
        # One cold read of every shard, then nothing.
        assert report.pool_stats.bytes_read_from_disk == report.total_payload_bytes

    def test_explicit_budget_bytes(self, tmp_path, dataset, config):
        trainer = _attached(tmp_path, dataset, config, budget_bytes=1 << 20)
        report = trainer.train(LogisticRegressionModel(dataset[0].shape[1], seed=0))
        assert report.budget_bytes == 1 << 20
        assert len(report.history.epoch_losses) == config.epochs

    def test_train_before_attach_rejected(self, config):
        trainer = OutOfCoreTrainer(config)
        with pytest.raises(RuntimeError, match="attach"):
            trainer.train(LogisticRegressionModel(4, seed=0))

    def test_shards_reusable_across_trainers(self, tmp_path, dataset, config):
        """Shard once, reattach from disk in a fresh trainer (open path)."""
        features, labels = dataset
        _shard(tmp_path, features, labels, config)

        second = OutOfCoreTrainer(config, budget_ratio=0.5)
        second.attach(Dataset.open(tmp_path))
        report = second.train(LogisticRegressionModel(features.shape[1], seed=0))
        assert len(report.history.epoch_losses) == config.epochs


class TestEpochStream:
    """Shards are read and decoded in order, on the training thread."""

    def test_a_fit_reads_shards_in_order_and_starts_no_thread(
        self, tmp_path, dataset, config, monkeypatch
    ):
        features, labels = dataset
        trainer = _attached(tmp_path, dataset, config, budget_ratio=0.5)
        reads: list[tuple[int, int]] = []
        real_read = trainer.pool.read

        def read(batch_id):
            reads.append((batch_id, threading.get_ident()))
            return real_read(batch_id)

        def no_threads(self):
            raise AssertionError(f"a fit started thread {self.name!r}")

        monkeypatch.setattr(trainer.pool, "read", read)
        monkeypatch.setattr(threading.Thread, "start", no_threads)
        report = trainer.train(LogisticRegressionModel(features.shape[1], seed=0))
        assert np.isfinite(report.final_loss)
        assert [b for b, _ in reads] == list(range(len(trainer.dataset))) * config.epochs
        assert {thread for _, thread in reads} == {threading.get_ident()}

    def test_a_shard_read_error_reaches_the_caller(self, tmp_path, dataset, config):
        features, labels = dataset
        trainer = _attached(tmp_path, dataset, config, budget_ratio=0.5)
        (tmp_path / trainer.dataset.shards[2].filename).unlink()
        with pytest.raises(FileNotFoundError):
            trainer.train(LogisticRegressionModel(features.shape[1], seed=0))


class TestAdaptiveScheme:
    """scheme="auto": per-shard compression flowing through the whole engine."""

    @pytest.fixture(scope="class")
    def mixed_dataset(self, tmp_path_factory):
        """A shard directory whose batches genuinely favour different schemes."""
        rng = np.random.default_rng(5)
        sparse = rng.normal(size=(90, 20)) * (rng.random((90, 20)) < 0.05)
        dense = rng.normal(size=(90, 20))
        labels = (rng.random(90) < 0.5).astype(np.float64)
        batches = [(sparse, labels), (dense, labels), (sparse.copy(), labels)]
        directory = tmp_path_factory.mktemp("auto-shards")
        created = Dataset.create(directory, batches, scheme="auto", workers=1)
        return directory, batches, created

    def test_trainer_trains_over_mixed_shards(self, mixed_dataset, config):
        directory, batches, created = mixed_dataset
        assert created.scheme == "mixed"  # the fixture data must actually split

        trainer = OutOfCoreTrainer(config, budget_ratio=0.5)
        trainer.attach(Dataset.open(directory))
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        report = trainer.train(model)
        assert len(report.history.epoch_losses) == config.epochs
        assert np.all(np.isfinite(model.get_parameters()))

    def test_mixed_training_matches_per_batch_reference(self, mixed_dataset, config):
        """Per-shard decoding is exact: same updates as in-memory batches."""
        directory, batches, _ = mixed_dataset
        trainer = OutOfCoreTrainer(config, budget_ratio=10.0)
        trainer.attach(Dataset.open(directory))
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        trainer.train(model)

        reference = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        for _ in range(config.epochs):
            for features, labels in batches:
                reference.gradient_step(features, labels, config.learning_rate)
        np.testing.assert_allclose(
            model.get_parameters(), reference.get_parameters(), rtol=1e-9, atol=1e-12
        )

    def test_auto_fit_and_checkpoint_record_scheme_mix(self, tmp_path, dataset, config):
        from repro.api import Dataset, Estimator
        from repro.serve.checkpoint import ModelRegistry

        features, labels = dataset
        data = Dataset.create(
            tmp_path / "shards", features, labels, scheme="auto",
            batch_size=config.batch_size, seed=config.shuffle_seed, workers=1,
        )
        estimator = Estimator(
            "logreg", scheme="auto", batch_size=config.batch_size, epochs=config.epochs,
            learning_rate=config.learning_rate, budget_ratio=2.0, workers=1,
        )
        estimator.fit(data)
        estimator.save(tmp_path / "registry")
        checkpoint = ModelRegistry(tmp_path / "registry").load("latest")
        meta = checkpoint.dataset_meta
        assert meta["requested_scheme"] == "auto"
        assert sum(meta["scheme_counts"].values()) == len(data)
        assert checkpoint.scheme_name == data.scheme


class TestReport:
    def test_report_stats_are_a_snapshot(self, tmp_path, dataset, config):
        features, labels = dataset
        trainer = _attached(tmp_path, dataset, config, budget_ratio=10.0)

        first = trainer.train(LogisticRegressionModel(features.shape[1], seed=0))
        hits_after_first = first.pool_stats.hits
        second = trainer.train(LogisticRegressionModel(features.shape[1], seed=0))

        assert first.pool_stats.hits == hits_after_first  # untouched by the rerun
        assert second.pool_stats.hits > hits_after_first  # warm cache kept counting


class TestTrainingIsPinned:
    def test_two_epoch_fit_over_toc_shards_is_bit_for_bit(self, tmp_path):
        # The kernel oracle checks single ops; this checks the epoch loop over
        # stored TOC shards end to end.  Digest of the weights taken before
        # the decode tree went straight from the payload to its level-major
        # layout: a faster read path must not move a bit of a fit.
        import hashlib

        from repro.api import Estimator

        x, y = DATASET_PROFILES["census"].classification(1000, seed=11)
        data = Dataset.create(
            tmp_path / "shards", x, y, scheme="TOC", batch_size=250, workers=1, shuffle=False
        )
        estimator = Estimator("logreg", epochs=2)
        estimator.fit(data)
        weights = np.ascontiguousarray(estimator.model.get_parameters(), dtype="<f8")
        assert hashlib.sha256(weights.tobytes()).hexdigest() == (
            "c7a0cc57c8fc61e882145a7c6162265e89632d89ba1c2b5776ee80cddadba0f5"
        )
