"""Bismarck-style in-database MGD training session.

Mirrors the integration described in Appendix D.1 of the paper:

1. compressed mini-batches live in a database table
   (:class:`repro.storage.table.BlobTable`) and are read through the buffer
   pool, so the storage fudge factor and memory pressure are accounted for;
2. the model lives in a shared-memory arena
   (:class:`repro.storage.arena.ModelArena`);
3. each epoch is a UDF-style pass that reads every batch row, updates the
   arena-resident model with the compressed matrix kernel, and writes the
   model back.

``run_epoch``/``train`` report both the measured wall-clock compute time and
the simulated IO time charged by the buffer pool, which is what the
end-to-end benches sum to reproduce Tables 6/7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.compression.base import CompressionScheme
from repro.storage.arena import ModelArena
from repro.storage.buffer_pool import BufferPool
from repro.storage.table import BlobTable


@dataclass
class EpochReport:
    """Timing and loss information for one epoch of in-database training.

    ``mean_loss`` is defined as in ``TrainingHistory.epoch_losses``: the mean
    of each batch's loss at the weights its step started from.
    """

    compute_seconds: float
    io_seconds: float
    mean_loss: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.io_seconds


@dataclass
class SessionReport:
    """Aggregated result of a training session."""

    epochs: list[EpochReport] = field(default_factory=list)

    @property
    def total_compute_seconds(self) -> float:
        return sum(e.compute_seconds for e in self.epochs)

    @property
    def total_io_seconds(self) -> float:
        return sum(e.io_seconds for e in self.epochs)

    @property
    def total_seconds(self) -> float:
        return self.total_compute_seconds + self.total_io_seconds

    @property
    def final_loss(self) -> float:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].mean_loss


class BismarckSession:
    """Train a model over compressed batches stored in a blob table."""

    MODEL_SEGMENT = "model"

    def __init__(
        self,
        scheme: CompressionScheme | None,
        buffer_pool: BufferPool,
        arena: ModelArena | None = None,
        table: BlobTable | None = None,
    ):
        self.table = table if table is not None else BlobTable(scheme, buffer_pool)
        self.arena = arena or ModelArena()

    # -- setup -----------------------------------------------------------------

    def load(self, batches: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Compress and store the mini-batches in the table."""
        self.table.load_batches(batches)

    def register_model(self, model) -> None:
        """Place the model's parameters in the shared arena."""
        self.arena.write(self.MODEL_SEGMENT, model.get_parameters())

    # -- training ----------------------------------------------------------------

    def run_epoch(self, model, learning_rate: float) -> EpochReport:
        """One UDF-style pass over the table updating the arena-resident model."""
        if self.MODEL_SEGMENT not in self.arena:
            raise RuntimeError("register_model must be called before training")
        model.set_parameters(self.arena.read(self.MODEL_SEGMENT))

        io_before = self.table.buffer_pool.stats.simulated_io_seconds
        start = time.perf_counter()
        # Each step's pre-step batch loss, as in MiniBatchGradientDescent.
        losses = [
            model.gradient_step(compressed, labels, learning_rate)
            for compressed, labels in self.table.iter_batches()
        ]
        compute = time.perf_counter() - start
        io = self.table.buffer_pool.stats.simulated_io_seconds - io_before

        self.arena.write(self.MODEL_SEGMENT, model.get_parameters())
        return EpochReport(
            compute_seconds=compute,
            io_seconds=io,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
        )

    def train(self, model, epochs: int, learning_rate: float) -> SessionReport:
        """Run ``epochs`` passes, mirroring the paper's fixed-epoch protocol."""
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.register_model(model)
        report = SessionReport()
        for _ in range(epochs):
            report.epochs.append(self.run_epoch(model, learning_rate))
        return report
