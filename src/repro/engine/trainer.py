"""Epoch-level out-of-core training driver.

The trainer wires the whole data path together: mini-batches are sharded to
disk through the parallel encode pipeline (:mod:`repro.engine.encode` /
:mod:`repro.engine.shards`), served through a byte-budgeted
:class:`~repro.storage.buffer_pool.BufferPool`, decoded in order on the
training thread, and stepped through the existing
:class:`~repro.ml.optimizer.MiniBatchGradientDescent` loop — so any model in
:mod:`repro.ml.models` trains unchanged over datasets larger than memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.compression.base import CompressionScheme
from repro.compression.registry import get_scheme
from repro.data.minibatch import split_minibatches
from repro.engine.encode import AUTO_SCHEME, resolve_executor, resolve_workers
from repro.engine.shards import ShardedDataset
from repro.ml.optimizer import GradientDescentConfig, MiniBatchGradientDescent, TrainingHistory
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.storage.buffer_pool import BufferPool, BufferPoolStats


@dataclass
class OOCTrainReport:
    """Result of one out-of-core training run."""

    history: TrainingHistory
    encode_seconds: float
    epoch_io_seconds: list[float] = field(default_factory=list)
    pool_stats: BufferPoolStats = field(default_factory=BufferPoolStats)
    budget_bytes: int = 0
    total_payload_bytes: int = 0
    physical_bytes: int = 0
    checkpoint_version: int | None = None
    checkpoint_path: Path | None = None

    @property
    def fits_in_memory(self) -> bool:
        return self.total_payload_bytes <= self.budget_bytes

    @property
    def final_loss(self) -> float:
        return self.history.final_loss

    @property
    def total_io_seconds(self) -> float:
        return float(sum(self.epoch_io_seconds))


class OutOfCoreTrainer:
    """Stream TOC-compressed shards from disk through the MGD loop.

    Parameters
    ----------
    scheme_name:
        Compression scheme for the shards: any registered scheme (TOC is the
        point of the paper) or ``"auto"`` to let the advisor pick per shard.
        Decoding always resolves per shard from the manifest, so a trainer
        can attach and train any dataset whose shards mix schemes.
    config:
        MGD hyper-parameters (batch size, epochs, learning rate, seed).
    budget_bytes / budget_ratio:
        Buffer-pool size.  An explicit byte budget wins; otherwise the pool
        is sized to ``budget_ratio`` of the total shard payload, and the
        default of 0.5 deliberately makes the dataset *not* fit so the run
        actually exercises the out-of-core path.
    workers / executor:
        Encode fan-out (see :func:`repro.engine.encode.encode_batches`).
    """

    def __init__(
        self,
        scheme_name: str = "TOC",
        config: GradientDescentConfig | None = None,
        *,
        budget_bytes: int | None = None,
        budget_ratio: float = 0.5,
        disk_bandwidth_bytes_per_sec: float = 150e6,
        workers: int | None = None,
        executor: str = "auto",
    ):
        if budget_bytes is None and budget_ratio <= 0:
            raise ValueError("budget_ratio must be positive")
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        resolve_executor(executor, resolve_workers(workers))  # fail fast on bad knobs
        self.scheme_name = scheme_name
        #: The fixed encode scheme, or ``None`` in per-shard ``"auto"`` mode.
        self.scheme: CompressionScheme | None = (
            None if scheme_name == AUTO_SCHEME else get_scheme(scheme_name)
        )
        self.config = config or GradientDescentConfig()
        self.budget_bytes = budget_bytes
        self.budget_ratio = budget_ratio
        self.disk_bandwidth_bytes_per_sec = disk_bandwidth_bytes_per_sec
        self.workers = workers
        self.executor = executor
        self.dataset: ShardedDataset | None = None
        self.pool: BufferPool | None = None
        self._shard_seconds = obs_metrics.histogram("engine.train.shard_seconds")

    # -- preparation -----------------------------------------------------------

    def shard(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        shard_dir: Path | str,
    ) -> ShardedDataset:
        """Shuffle once, split, and persist compressed shards to ``shard_dir``."""
        batches = split_minibatches(
            features,
            labels,
            batch_size=self.config.batch_size,
            shuffle=True,
            seed=self.config.shuffle_seed,
        )
        dataset = ShardedDataset.create(
            shard_dir,
            batches,
            self.scheme_name,
            workers=self.workers,
            executor=self.executor,
        )
        self.attach(dataset)
        return dataset

    def attach(self, dataset: ShardedDataset) -> BufferPool:
        """Attach an existing shard directory behind a fresh buffer pool.

        Decoding resolves per shard from the manifest, so any dataset —
        uniform or mixed-scheme — trains through an ``"auto"`` trainer.  A
        trainer pinned to one scheme still refuses foreign shard directories:
        that mismatch is a caller error worth failing loudly on.
        """
        if self.scheme is not None and dataset.scheme_name != self.scheme.name:
            raise ValueError(
                f"shards were encoded with {dataset.scheme_name!r} but this trainer "
                f"is pinned to {self.scheme.name!r} (use scheme_name='auto' to "
                f"train over any shard mix)"
            )
        budget = self.budget_bytes
        if budget is None:
            budget = max(1, int(self.budget_ratio * dataset.total_payload_bytes()))
        pool = BufferPool(
            budget_bytes=budget,
            disk_bandwidth_bytes_per_sec=self.disk_bandwidth_bytes_per_sec,
        )
        dataset.attach(pool)
        self.dataset = dataset
        self.pool = pool
        return pool

    # -- training ----------------------------------------------------------------

    def _fetch(self, batch_id: int):
        # Runs on the epoch loop's thread, so each shard span nests inside
        # the train span.
        start = time.perf_counter()
        with obs_trace.span("engine.train.shard", shard=batch_id):
            payload = self.pool.read(batch_id)
            # Per-shard decode: the manifest names each shard's scheme, so mixed
            # datasets stream through the same epoch loop as uniform ones.
            fetched = self.dataset.decode(batch_id, payload), self.dataset.labels_for(batch_id)
        self._shard_seconds.observe(time.perf_counter() - start)
        return fetched

    def train(self, model, eval_fn=None) -> OOCTrainReport:
        """Run the configured epochs, reading and decoding shards in order."""
        if self.dataset is None or self.pool is None:
            raise RuntimeError("call shard() or attach() before train()")
        dataset, pool = self.dataset, self.pool
        keys = range(len(dataset))
        io_checkpoints: list[float] = []

        def epoch_batches():
            io_checkpoints.append(pool.stats.simulated_io_seconds)
            return map(self._fetch, keys)

        optimizer = MiniBatchGradientDescent(self.config)
        with obs_trace.span(
            "engine.train", epochs=self.config.epochs, n_shards=len(dataset)
        ):
            history = optimizer.train_streaming(model, epoch_batches, eval_fn=eval_fn)
        epoch_hist = obs_metrics.histogram("engine.train.epoch_seconds")
        for epoch_seconds in history.epoch_times:
            epoch_hist.observe(epoch_seconds)
        obs_metrics.counter("engine.train.epochs").inc(len(history.epoch_times))

        io_checkpoints.append(pool.stats.simulated_io_seconds)
        return OOCTrainReport(
            history=history,
            encode_seconds=dataset.encode_seconds,
            epoch_io_seconds=[b - a for a, b in zip(io_checkpoints, io_checkpoints[1:])],
            # Snapshot, not alias: the pool keeps counting if the trainer is
            # reused, and earlier reports must not change under the caller.
            pool_stats=replace(pool.stats),
            budget_bytes=pool.budget_bytes,
            total_payload_bytes=dataset.total_payload_bytes(),
            physical_bytes=dataset.physical_bytes(),
        )

    def fit(
        self,
        model,
        features: np.ndarray,
        labels: np.ndarray,
        shard_dir: Path | str,
        eval_fn=None,
        *,
        checkpoint_to: Path | str | None = None,
    ) -> OOCTrainReport:
        """Convenience wrapper: shard to disk, then train.

        With ``checkpoint_to`` the trained model is published as the next
        version in a :class:`repro.serve.checkpoint.ModelRegistry` rooted
        there, recording the shard directory so ``python -m repro serve`` can
        find the features again; the report carries the version and path.
        """
        self.shard(features, labels, shard_dir)
        report = self.train(model, eval_fn=eval_fn)
        if checkpoint_to is not None:
            report.checkpoint_version, report.checkpoint_path = self.checkpoint(
                model, checkpoint_to
            )
        return report

    def checkpoint(self, model, registry_root: Path | str) -> tuple[int, Path]:
        """Publish ``model`` to the registry with this run's provenance."""
        if self.dataset is None:
            raise RuntimeError("call shard() or attach() before checkpoint()")
        # Local import: repro.serve sits on top of the engine, so importing it
        # at module scope would be circular.
        from repro.serve.checkpoint import ModelRegistry

        registry = ModelRegistry(registry_root)
        version = registry.save(
            model,
            scheme_name=self.dataset.scheme_name,
            dataset_meta={
                "shard_dir": str(self.dataset.directory.resolve()),
                "n_examples": self.dataset.n_examples,
                "n_shards": len(self.dataset),
                "scheme": self.dataset.scheme_name,
                "requested_scheme": self.scheme_name,
                "scheme_counts": self.dataset.scheme_counts(),
            },
        )
        return version, registry.path_for(version)
