"""Epoch-level out-of-core training driver.

The trainer streams an already-encoded shard directory
(:class:`~repro.engine.shards.Dataset`, written by
:meth:`~repro.engine.shards.Dataset.create`) through a byte-budgeted
:class:`~repro.storage.buffer_pool.BufferPool`, decodes each shard in order
on the training thread, and steps it through the existing
:class:`~repro.ml.optimizer.MiniBatchGradientDescent` loop — so any model in
:mod:`repro.ml.models` trains unchanged over datasets larger than memory.
Encoding and checkpointing belong to the :mod:`repro.api` facade
(``Dataset.create``, ``Estimator.fit``, ``Estimator.save``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.engine.shards import Dataset
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
    """Stream compressed shards from disk through the MGD loop.

    Parameters
    ----------
    config:
        MGD hyper-parameters (batch size, epochs, learning rate, seed).
    budget_bytes / budget_ratio:
        Buffer-pool size.  An explicit byte budget wins; otherwise the pool
        is sized to ``budget_ratio`` of the total shard payload, and the
        default of 0.5 deliberately makes the dataset *not* fit so the run
        actually exercises the out-of-core path.
    disk_bandwidth_bytes_per_sec:
        The pool's simulated disk bandwidth for misses.
    """

    def __init__(
        self,
        config: GradientDescentConfig | None = None,
        *,
        budget_bytes: int | None = None,
        budget_ratio: float = 0.5,
        disk_bandwidth_bytes_per_sec: float = 150e6,
    ):
        if budget_bytes is None and budget_ratio <= 0:
            raise ValueError("budget_ratio must be positive")
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        self.config = config or GradientDescentConfig()
        self.budget_bytes = budget_bytes
        self.budget_ratio = budget_ratio
        self.disk_bandwidth_bytes_per_sec = disk_bandwidth_bytes_per_sec
        self.dataset: Dataset | None = None
        self.pool: BufferPool | None = None
        self._shard_seconds = obs_metrics.histogram("engine.train.shard_seconds")

    def attach(self, dataset: Dataset) -> BufferPool:
        """Attach a shard directory behind a fresh buffer pool.

        Decoding resolves per shard from the manifest, so any dataset —
        uniform or mixed-scheme — trains through the same trainer.
        """
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
            raise RuntimeError("call attach() before train()")
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
