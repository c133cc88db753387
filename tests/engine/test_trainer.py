"""End-to-end tests for the out-of-core training engine."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.compression.registry import get_scheme
from repro.data.registry import DATASET_PROFILES
from repro.engine.trainer import OutOfCoreTrainer
from repro.ml.models import LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig, MiniBatchGradientDescent


@pytest.fixture(scope="module")
def dataset():
    return DATASET_PROFILES["census"].classification(600, seed=3)


@pytest.fixture(scope="module")
def config():
    return GradientDescentConfig(batch_size=100, epochs=2, learning_rate=0.3, shuffle_seed=0)


class TestOutOfCoreTrainer:
    def test_two_epoch_convergence_matches_in_memory_reference(self, tmp_path, dataset, config):
        """Same seed, same batches: OOC training equals the in-memory loop."""
        features, labels = dataset

        reference = LogisticRegressionModel(features.shape[1], seed=0)
        ref_history = MiniBatchGradientDescent(config).fit(
            reference, features, labels, scheme=get_scheme("TOC")
        )

        trainer = OutOfCoreTrainer("TOC", config, budget_ratio=0.5, executor="serial")
        model = LogisticRegressionModel(features.shape[1], seed=0)
        report = trainer.fit(model, features, labels, tmp_path)

        np.testing.assert_allclose(model.get_parameters(), reference.get_parameters())
        assert report.history.epoch_losses[-1] < report.history.epoch_losses[0]
        # Both loops record each step's pre-step loss, so the histories agree too.
        assert report.history.epoch_losses == pytest.approx(ref_history.epoch_losses)
        assert model.loss(features, labels) == pytest.approx(reference.loss(features, labels))

    def test_dataset_larger_than_pool_spills(self, tmp_path, dataset, config):
        features, labels = dataset
        trainer = OutOfCoreTrainer("TOC", config, budget_ratio=0.5, executor="serial")
        model = LogisticRegressionModel(features.shape[1], seed=0)
        report = trainer.fit(model, features, labels, tmp_path)

        assert not report.fits_in_memory
        assert report.pool_stats.evictions > 0
        assert report.pool_stats.misses >= len(trainer.dataset)
        assert len(report.epoch_io_seconds) == config.epochs
        assert all(io > 0 for io in report.epoch_io_seconds)

    def test_generous_pool_hits_after_first_epoch(self, tmp_path, dataset, config):
        features, labels = dataset
        trainer = OutOfCoreTrainer("TOC", config, budget_ratio=10.0, executor="serial")
        model = LogisticRegressionModel(features.shape[1], seed=0)
        report = trainer.fit(model, features, labels, tmp_path)

        assert report.fits_in_memory
        n = len(trainer.dataset)
        assert report.pool_stats.misses == n  # first epoch only
        assert report.pool_stats.hits == (config.epochs - 1) * n
        assert report.epoch_io_seconds[-1] == 0.0

    def test_explicit_budget_bytes(self, tmp_path, dataset, config):
        features, labels = dataset
        trainer = OutOfCoreTrainer("TOC", config, budget_bytes=1 << 20, executor="serial")
        model = LogisticRegressionModel(features.shape[1], seed=0)
        report = trainer.fit(model, features, labels, tmp_path)
        assert report.budget_bytes == 1 << 20
        assert len(report.history.epoch_losses) == config.epochs

    def test_train_before_shard_rejected(self, config):
        trainer = OutOfCoreTrainer("TOC", config)
        with pytest.raises(RuntimeError):
            trainer.train(LogisticRegressionModel(4, seed=0))

    def test_bismarck_session_over_shards(self, tmp_path, dataset, config):
        features, labels = dataset
        trainer = OutOfCoreTrainer("TOC", config, budget_ratio=10.0, executor="serial")
        trainer.shard(features, labels, tmp_path)

        session = trainer.bismarck_session()
        model = LogisticRegressionModel(features.shape[1], seed=0)
        report = session.train(model, epochs=2, learning_rate=0.3)
        assert report.epochs[-1].mean_loss < report.epochs[0].mean_loss

    def test_shards_reusable_across_trainers(self, tmp_path, dataset, config):
        """Shard once, reattach from disk in a fresh trainer (open path)."""
        from repro.engine.shards import ShardedDataset

        features, labels = dataset
        first = OutOfCoreTrainer("TOC", config, budget_ratio=0.5, executor="serial")
        first.shard(features, labels, tmp_path)

        second = OutOfCoreTrainer("TOC", config, budget_ratio=0.5)
        second.attach(ShardedDataset.open(tmp_path))
        model = LogisticRegressionModel(features.shape[1], seed=0)
        report = second.train(model)
        assert len(report.history.epoch_losses) == config.epochs


class TestEpochStream:
    """Shards are read and decoded in order, on the training thread."""

    def test_a_fit_reads_shards_in_order_and_starts_no_thread(
        self, tmp_path, dataset, config, monkeypatch
    ):
        features, labels = dataset
        trainer = OutOfCoreTrainer("TOC", config, budget_ratio=0.5, executor="serial")
        trainer.shard(features, labels, tmp_path)
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
        trainer = OutOfCoreTrainer("TOC", config, budget_ratio=0.5, executor="serial")
        trainer.shard(features, labels, tmp_path)
        (tmp_path / trainer.dataset.shards[2].filename).unlink()
        with pytest.raises(FileNotFoundError):
            trainer.train(LogisticRegressionModel(features.shape[1], seed=0))


class TestAdaptiveScheme:
    """scheme="auto": per-shard compression flowing through the whole engine."""

    @pytest.fixture(scope="class")
    def mixed_dataset(self, tmp_path_factory):
        """A shard directory whose batches genuinely favour different schemes."""
        from repro.engine.shards import ShardedDataset

        rng = np.random.default_rng(5)
        sparse = rng.normal(size=(90, 20)) * (rng.random((90, 20)) < 0.05)
        dense = rng.normal(size=(90, 20))
        labels = (rng.random(90) < 0.5).astype(np.float64)
        batches = [(sparse, labels), (dense, labels), (sparse.copy(), labels)]
        directory = tmp_path_factory.mktemp("auto-shards")
        created = ShardedDataset.create(directory, batches, "auto", executor="serial")
        return directory, batches, created

    def test_auto_trainer_trains_over_mixed_shards(self, mixed_dataset, config):
        from repro.engine.shards import ShardedDataset

        directory, batches, created = mixed_dataset
        assert created.is_mixed  # the fixture data must actually split

        trainer = OutOfCoreTrainer("auto", config, budget_ratio=0.5)
        trainer.attach(ShardedDataset.open(directory))
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        report = trainer.train(model)
        assert len(report.history.epoch_losses) == config.epochs
        assert np.all(np.isfinite(model.get_parameters()))

    def test_mixed_training_matches_per_batch_reference(self, mixed_dataset, config):
        """Per-shard decoding is exact: same updates as in-memory batches."""
        from repro.engine.shards import ShardedDataset

        directory, batches, _ = mixed_dataset
        trainer = OutOfCoreTrainer("auto", config, budget_ratio=10.0)
        trainer.attach(ShardedDataset.open(directory))
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        trainer.train(model)

        reference = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        for _ in range(config.epochs):
            for features, labels in batches:
                reference.gradient_step(features, labels, config.learning_rate)
        np.testing.assert_allclose(
            model.get_parameters(), reference.get_parameters(), rtol=1e-9, atol=1e-12
        )

    def test_pinned_trainer_rejects_mixed_shards(self, mixed_dataset, config):
        from repro.engine.shards import ShardedDataset

        directory, _, _ = mixed_dataset
        pinned = OutOfCoreTrainer("TOC", config)
        with pytest.raises(ValueError, match="pinned to 'TOC'"):
            pinned.attach(ShardedDataset.open(directory))

    def test_auto_fit_and_checkpoint_record_scheme_mix(self, tmp_path, dataset, config):
        from repro.serve.checkpoint import ModelRegistry

        features, labels = dataset
        trainer = OutOfCoreTrainer("auto", config, budget_ratio=2.0, executor="serial")
        model = LogisticRegressionModel(features.shape[1], seed=0)
        trainer.fit(
            model, features, labels, tmp_path / "shards",
            checkpoint_to=tmp_path / "registry",
        )
        checkpoint = ModelRegistry(tmp_path / "registry").load("latest")
        meta = checkpoint.dataset_meta
        assert meta["requested_scheme"] == "auto"
        assert sum(meta["scheme_counts"].values()) == len(trainer.dataset)
        assert checkpoint.scheme_name == trainer.dataset.scheme_name

    def test_auto_bismarck_session_over_mixed_shards(self, mixed_dataset, config):
        from repro.engine.shards import ShardedDataset

        directory, batches, _ = mixed_dataset
        trainer = OutOfCoreTrainer("auto", config, budget_ratio=10.0)
        trainer.attach(ShardedDataset.open(directory))
        session = trainer.bismarck_session()
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        report = session.train(model, epochs=2, learning_rate=0.3)
        assert np.isfinite(report.final_loss)


class TestReportAndSchemeGuards:
    def test_attach_rejects_mismatched_scheme(self, tmp_path, dataset, config):
        from repro.engine.shards import ShardedDataset

        features, labels = dataset
        csr_trainer = OutOfCoreTrainer("CSR", config, executor="serial")
        csr_trainer.shard(features, labels, tmp_path)

        toc_trainer = OutOfCoreTrainer("TOC", config)
        with pytest.raises(ValueError, match="encoded with 'CSR'"):
            toc_trainer.attach(ShardedDataset.open(tmp_path))

    def test_unknown_scheme_rejected_at_construction(self, config):
        with pytest.raises(KeyError):
            OutOfCoreTrainer("LZ77", config)

    def test_report_stats_are_a_snapshot(self, tmp_path, dataset, config):
        features, labels = dataset
        trainer = OutOfCoreTrainer("TOC", config, budget_ratio=10.0, executor="serial")
        trainer.shard(features, labels, tmp_path)

        first = trainer.train(LogisticRegressionModel(features.shape[1], seed=0))
        hits_after_first = first.pool_stats.hits
        second = trainer.train(LogisticRegressionModel(features.shape[1], seed=0))

        assert first.pool_stats.hits == hits_after_first  # untouched by the rerun
        assert second.pool_stats.hits > hits_after_first  # warm cache kept counting
