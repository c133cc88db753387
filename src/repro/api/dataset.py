"""The :class:`Dataset` handle: one object owning a shard directory's lifecycle.

``repro.engine`` knows how to encode, persist, and stream compressed shards;
this module wraps that machinery in a single handle covering the whole
dataset lifecycle the paper's workloads need:

* :meth:`Dataset.create` — shuffle-once split + parallel encode (the
  Section 5.1 advisor picks per shard with ``scheme="auto"``);
* :meth:`Dataset.open` — attach to an existing directory (manifest v1 or v2);
* :meth:`Dataset.append` — grow a live dataset with new batches;
* :meth:`Dataset.stats` — sizes, compression ratio, and the per-shard
  scheme mix (what benchmark provenance and the ``stats`` CLI print);
* :meth:`Dataset.compact` — re-advise every shard and re-encode only the
  drifted ones, atomically rewriting the v2 manifest;
* :meth:`Dataset.scan` — predicate push-down selections and aggregations
  answered on the compressed shards (:mod:`repro.exec.scan`);
* :meth:`Dataset.take` / ``dataset[rows]`` — ad-hoc row reads through the
  per-scheme ``row_slice`` kernel;
* :meth:`Dataset.fsck` — sweep leftovers of interrupted compactions.

Everything downstream (training, serving, benchmarks) takes a ``Dataset``;
the underlying :class:`~repro.engine.shards.ShardedDataset` stays reachable
through :attr:`Dataset.sharded` for advanced use.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.core.calibration import WORKLOADS, Calibration, ensure_calibration
from repro.data.minibatch import split_minibatches
from repro.engine.compact import CompactReport, FsckReport, compact_dataset, fsck_dataset
from repro.engine.encode import AUTO_SAMPLE_ROWS, AUTO_SCHEME
from repro.engine.shards import (
    MANIFEST_NAME,
    ShardedDataset,
    ShardInfo,
    group_by_shard,
    locate_rows,
    shard_offsets,
)
from repro.exec import row_slice
from repro.exec.scan import ScanResult, scan_shards
from repro.storage.buffer_pool import BufferPool

#: Default mini-batch row count (matches the training default).
DEFAULT_BATCH_SIZE = 250


def _calibration_for(path: Path | str, workload: str | None) -> Calibration | None:
    """The calibration backing workload-aware advice, or ``None`` without one.

    Resolved next to the dataset directory so the timing pass runs at most
    once per machine and the measurements persist as ``calibration.json``
    for every later open/compact of the same data.
    """
    if workload is None:
        return None
    if workload not in WORKLOADS:
        # Fail before the timing pass, not after it.
        raise ValueError(
            f"unknown workload {workload!r}; valid workloads: {list(WORKLOADS)}"
        )
    return ensure_calibration(path)


@dataclass(frozen=True)
class DatasetStats:
    """A point-in-time summary of one shard directory."""

    path: str
    n_shards: int
    n_examples: int
    n_cols: int
    scheme: str
    requested_scheme: str | list[str] | None
    scheme_counts: dict[str, int] = field(default_factory=dict)
    payload_bytes: int = 0
    physical_bytes: int = 0
    dense_bytes: int = 0
    encode_seconds: float = 0.0
    #: Process-global obs metrics snapshot; only populated by
    #: ``Dataset.stats(metrics=True)``.
    metrics: dict | None = None

    @property
    def compression_ratio(self) -> float:
        """Dense footprint over compressed payload (higher is better)."""
        return self.dense_bytes / max(self.payload_bytes, 1)

    @property
    def is_mixed(self) -> bool:
        return len(self.scheme_counts) > 1

    def as_dict(self) -> dict:
        """JSON-ready form (benchmark records, CLI ``--json`` style output)."""
        data = {**asdict(self), "compression_ratio": self.compression_ratio}
        if data.get("metrics") is None:
            data.pop("metrics", None)
        return data


class Dataset:
    """A compressed, sharded dataset on disk — the facade's data handle."""

    def __init__(self, sharded: ShardedDataset):
        self._sharded = sharded

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: Path | str,
        features: np.ndarray,
        labels: np.ndarray,
        *,
        scheme: str | Sequence[str] = AUTO_SCHEME,
        batch_size: int = DEFAULT_BATCH_SIZE,
        shuffle: bool = True,
        seed: int | None = 0,
        workers: int | None = None,
        executor: str = "auto",
        workload: str | None = None,
    ) -> "Dataset":
        """Shuffle once, split into mini-batches, and encode them to ``path``.

        ``scheme`` is any registered scheme name, ``"auto"`` (default) for
        per-shard advisor selection, or a sequence naming one scheme per
        batch.  The directory is created if needed.

        ``workload`` (``"train"``, ``"serve"``, ``"scan"``) switches
        ``"auto"`` selection to the measured cost model: the kernel
        calibration is resolved once (computed on first use, persisted as
        ``calibration.json`` next to the manifest) and each shard gets the
        scheme whose measured op mix is cheapest for that workload.
        """
        batches = split_minibatches(
            features, labels, batch_size=batch_size, shuffle=shuffle, seed=seed
        )
        sharded = ShardedDataset.create(
            path, batches, scheme, workers=workers, executor=executor,
            workload=workload, calibration=_calibration_for(path, workload),
        )
        return cls(sharded)

    @classmethod
    def from_batches(
        cls,
        path: Path | str,
        batches: list[tuple[np.ndarray, np.ndarray]],
        *,
        scheme: str | Sequence[str] = AUTO_SCHEME,
        workers: int | None = None,
        executor: str = "auto",
        workload: str | None = None,
    ) -> "Dataset":
        """Encode pre-split ``(features, labels)`` batches to ``path``."""
        sharded = ShardedDataset.create(
            path, batches, scheme, workers=workers, executor=executor,
            workload=workload, calibration=_calibration_for(path, workload),
        )
        return cls(sharded)

    @classmethod
    def open(cls, path: Path | str) -> "Dataset":
        """Attach to an existing shard directory (manifest v1 or v2)."""
        return cls(ShardedDataset.open(path))

    @staticmethod
    def exists(path: Path | str) -> bool:
        """Whether ``path`` holds a shard manifest this class can open."""
        return (Path(path) / MANIFEST_NAME).exists()

    # -- growth ----------------------------------------------------------------

    def append(
        self,
        batches,
        labels: np.ndarray | None = None,
        *,
        scheme: str | Sequence[str] | None = None,
        batch_size: int | None = None,
        workers: int | None = None,
        executor: str = "auto",
        workload: str | None = None,
    ) -> list[ShardInfo]:
        """Append data as new shards (manifest and labels rewritten atomically).

        Accepts either a list of ``(features, labels)`` mini-batch tuples, or
        a ``(features, labels)`` array pair that is split in row order with
        ``batch_size`` (default: the dataset's widest existing shard).  The
        scheme defaults to the dataset's original request, so an ``"auto"``
        dataset keeps advising per shard as it grows; ``workload`` makes that
        advice use the measured cost model (see :meth:`create`).
        """
        if labels is not None:
            size = batch_size or max(
                (s.n_rows for s in self._sharded.shards), default=DEFAULT_BATCH_SIZE
            )
            batches = split_minibatches(batches, labels, batch_size=size, shuffle=False)
        return self._sharded.append(
            list(batches), scheme, workers=workers, executor=executor,
            workload=workload, calibration=_calibration_for(self.path, workload),
        )

    # -- maintenance -----------------------------------------------------------

    def compact(
        self,
        readvise: bool = True,
        *,
        sample_rows: int = AUTO_SAMPLE_ROWS,
        workload: str | None = None,
        max_shards: int | None = None,
        workers: int | None = None,
        executor: str = "auto",
    ) -> CompactReport:
        """Re-advise every shard; re-encode only those whose winner changed.

        This is the drift repair pass: shards advised long ago (or encoded
        with a fixed scheme) are re-sampled through the Section 5.1 advisor,
        and only the shards whose winning scheme differs from the manifest's
        are re-encoded.  The v2 manifest is rewritten atomically; a second
        compact right after a first is a no-op (``report.changed`` is
        ``False``).  With ``readvise=False`` only the manifest is rewritten
        (normalising a v1 directory to format v2).

        ``workload`` re-advises with the measured cost model: the kernel
        calibration (``calibration.json`` next to the manifest; computed on
        first use) scores each scheme by the ops that workload actually runs,
        so the *same* data compacts differently for a training replica
        (``workload="train"``) than for a serving one (``workload="serve"``)
        — and re-running ``compact`` with a workload retroactively upgrades
        datasets encoded under the old flat-penalty advisor.

        Re-encoding fans out over the encode executor (``workers`` /
        ``executor`` as in :meth:`create`); ``max_shards`` bounds how many
        shards one pass may rewrite, deferring the rest to later passes
        (``report.deferred`` counts them).
        """
        return compact_dataset(
            self._sharded,
            readvise=readvise,
            sample_rows=sample_rows,
            workload=workload,
            calibration=_calibration_for(self.path, workload),
            max_shards=max_shards,
            workers=workers,
            executor=executor,
        )

    def fsck(self, *, remove: bool = True) -> FsckReport:
        """Sweep leftovers of interrupted compactions (and report corruption).

        A crash between shard staging and the manifest swap leaves staged
        ``shard-*.gN.bin`` generations and dot-prefixed temporaries nothing
        references; fsck deletes exactly those (``remove=False`` only
        reports them) and lists — without touching — any manifest-referenced
        shard file that is missing on disk.
        """
        return fsck_dataset(self._sharded, remove=remove)

    # -- queries ---------------------------------------------------------------

    def scan(
        self,
        *,
        columns: Sequence[int] | None = None,
        where=None,
        agg=None,
        limit: int | None = None,
        pushdown: bool = True,
        budget_bytes: int | None = None,
    ) -> ScanResult:
        """Select rows or compute aggregates, pushed down into the shards.

        ``where`` is a :class:`~repro.exec.predicates.Predicate` or its
        textual form (``"c0 >= 0.5 and c2 == 1"``); ``agg`` is one or more
        aggregate specs (``"count"``, ``"sum:c3"``, ``["min:c0", "max:c0"]``)
        and is exclusive with ``columns``.  Value-indexed shards (CVI/DVI)
        answer comparisons by probing their value dictionaries and
        aggregates from code frequencies; TOC shards take every column the
        scan touches out of one pass over the decode tree and decode only
        the matched rows, selections and aggregates alike; every other
        scheme (DEN, CSR, CLA, the byte-block codecs) decodes once and masks
        densely — results are identical either way (``pushdown=False``
        forces the dense path, which is what the benchmark gate compares
        against).

        Shards stream through a byte-budgeted
        :class:`~repro.storage.buffer_pool.BufferPool` (``budget_bytes``
        defaults to the full payload) and a selection with ``limit`` stops
        reading as soon as enough rows matched (``limit`` must be at least
        1 — pass ``None`` for no limit).
        """
        sharded = self._sharded
        pool = BufferPool(
            budget_bytes=budget_bytes or max(1, sharded.total_payload_bytes())
        )
        sharded.attach(pool)

        def stream():
            offset = 0
            for shard in sharded.shards:
                yield sharded.decode(shard.batch_id, pool.read(shard.batch_id)), offset
                offset += shard.n_rows

        return scan_shards(
            stream(),
            columns=columns,
            where=where,
            agg=agg,
            limit=limit,
            pushdown=pushdown,
        )

    def take(self, rows) -> np.ndarray:
        """Ad-hoc row reads: dense copies of the requested global rows.

        Row ids address the *stored* order — the same ids ``predict_id``
        and the feature store use — which differs from the input order when
        the dataset was created with ``shuffle=True``.

        Accepts any iterable of global row ids (duplicates allowed, request
        order preserved).  Each touched shard is decoded once and sliced
        with the per-scheme :func:`repro.exec.row_slice` kernel — notebooks
        no longer need to reach into ``FeatureStore`` internals for a quick
        look at the data.
        """
        batch_ids, local_rows = locate_rows(shard_offsets(self._sharded.shards), rows)
        out = np.empty((batch_ids.size, self.n_cols), dtype=np.float64)
        for batch_id, positions in group_by_shard(batch_ids):
            out[positions] = row_slice(self._sharded.decode(batch_id), local_rows[positions])
        return out

    def __getitem__(self, key) -> np.ndarray:
        """Sugar over :meth:`take`: ``dataset[7]``, ``dataset[10:20]``,
        ``dataset[[3, 1, 4]]``."""
        if isinstance(key, (int, np.integer)):
            index = int(key)
            if index < 0:
                index += self.n_examples
            return self.take([index])[0]
        if isinstance(key, slice):
            return self.take(range(*key.indices(self.n_examples)))
        return self.take(key)

    # -- inspection ------------------------------------------------------------

    def stats(self, *, metrics: bool = False) -> DatasetStats:
        """Sizes, compression ratio, and the per-shard scheme mix.

        With ``metrics=True`` the result also carries the process-global
        observability snapshot (``repro.obs.metrics_snapshot()``) — encode,
        train, scan, compaction, and buffer-pool counters accumulated so far
        in this process, not scoped to this dataset alone.
        """
        from repro.obs import metrics_snapshot

        sharded = self._sharded
        n_cols = sharded.shards[0].n_cols if sharded.shards else 0
        return DatasetStats(
            path=str(sharded.directory),
            n_shards=len(sharded),
            n_examples=sharded.n_examples,
            n_cols=n_cols,
            scheme=sharded.scheme_name,
            requested_scheme=sharded.requested_scheme,
            scheme_counts=sharded.scheme_counts(),
            payload_bytes=sharded.total_payload_bytes(),
            physical_bytes=sharded.physical_bytes(),
            dense_bytes=sharded.n_examples * n_cols * 8,
            encode_seconds=sharded.encode_seconds,
            metrics=metrics_snapshot() if metrics else None,
        )

    @property
    def path(self) -> Path:
        return self._sharded.directory

    @property
    def sharded(self) -> ShardedDataset:
        """The underlying engine-level store (advanced use)."""
        return self._sharded

    @property
    def n_examples(self) -> int:
        return self._sharded.n_examples

    @property
    def n_cols(self) -> int:
        return self._sharded.shards[0].n_cols if self._sharded.shards else 0

    @property
    def scheme(self) -> str:
        """The uniform scheme name, or ``"mixed"`` when shards differ."""
        return self._sharded.scheme_name

    def scheme_counts(self) -> dict[str, int]:
        return self._sharded.scheme_counts()

    def __len__(self) -> int:
        return len(self._sharded)

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return (
            f"Dataset({str(self.path)!r}, shards={len(self)}, "
            f"examples={self.n_examples}, scheme={self.scheme!r})"
        )

    # -- iteration -------------------------------------------------------------

    def batches(self) -> Iterator[tuple[object, np.ndarray]]:
        """Yield ``(compressed_matrix, labels)`` per shard, in batch order.

        The matrices are :class:`~repro.compression.base.CompressedMatrix`
        instances — every model and kernel in the stack runs on them directly
        through :mod:`repro.exec`, so iteration never densifies a shard.
        """
        for shard in self._sharded.shards:
            yield (
                self._sharded.decode(shard.batch_id),
                self._sharded.labels_for(shard.batch_id),
            )

    def labels(self) -> np.ndarray:
        """All labels concatenated in batch order."""
        return np.concatenate(
            [self._sharded.labels_for(s.batch_id) for s in self._sharded.shards]
        )
