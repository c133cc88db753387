"""One shard directory, owned by one :class:`Dataset`.

A dataset is a directory holding one file per compressed mini-batch plus
a JSON manifest:

.. code-block:: text

    shards/
      manifest.json     # per-shard schemes, sizes and CRC-32s, encode provenance
      shard-00000.bin   # batch 0: its payload, then its label block
      shard-00001.bin   # ...

A shard file's first ``nbytes`` bytes are exactly what
``CompressedMatrix.to_bytes`` produced, so any registered scheme's class
reads its shards back with its own ``decompress_bytes`` (the manifest names
the scheme, ``get_scheme`` gives the class).  The ``label_nbytes`` after
them are the batch's labels, value-indexed (:mod:`repro.engine.labels`),
and the row's ``crc32`` covers the whole file.
:class:`Dataset` owns the manifest, the labels, the generation and every
write, and covers the lifecycle the paper's workloads need:

* :meth:`Dataset.create` — shuffle-once split + parallel encode (the
  Section 5.1 advisor picks per shard with ``scheme="auto"``, ranking the
  schemes by their measured cost for a workload);
* :meth:`Dataset.open` — attach to an existing directory (manifest v1, v2 or
  v3), reading the manifest alone;
* :meth:`Dataset.append` — grow a live dataset with new batches;
* :meth:`Dataset.compact` — re-advise every shard and re-encode only the
  drifted ones (the advising policy is :mod:`repro.engine.compact`);
* :meth:`Dataset.fsck` — sweep leftovers of interrupted writes, report
  missing, wrong-sized or corrupt shard files;
* :meth:`Dataset.scan`, :meth:`Dataset.take` / ``dataset[rows]`` and
  :meth:`Dataset.batches` — queries and iteration on the compressed shards;
* :meth:`Dataset.stats` — sizes, compression ratio and the scheme mix.

Create, append and compact all run one write sequence
(:meth:`Dataset._write`): stage each shard file under a fresh filename,
publish the manifest, and only then unlink what it superseded.  An append
writes its own shard files and the manifest, nothing else.  Every file is
published with ``os.replace`` (:func:`~repro.storage.mmapio.publish_file`),
so a crash leaves the old dataset or the new one, never a torn file.
Caching policy is not kept here: the trainer's
:class:`~repro.storage.buffer_pool.BufferPool` holds shards as lazy entries
(:meth:`Dataset.attach`), a feature store maps them.

Manifest format v3 records each shard's scheme, ``label_nbytes`` and
``crc32``.  v2 (per-shard schemes, every label in one ``labels.npz``) and v1
(one dataset-wide ``"scheme"`` key) directories are still read, their
labels from ``labels.npz``; their next write rewrites every shard as v3,
payloads copied byte for byte, and unlinks ``labels.npz``.

Every manifest write bumps a monotonically increasing ``generation``
counter.  Shard files are immutable *between* manifest swaps, so the
generation is the one value a read-only observer (a serving worker sharing
the directory) needs to poll: unchanged generation means every file it has
open is still the live one; a bumped generation means an append/compact
published new files and the observer should re-open (:func:`read_extent`
reads it without opening the dataset).
"""

from __future__ import annotations

import json
import operator
import os
import re
import time
import zlib
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.compression.base import CompressedMatrix
from repro.compression.registry import get_scheme
from repro.core.calibration import DEFAULT_WORKLOAD
from repro.core.validate import EncodingError
from repro.data.minibatch import split_minibatches
from repro.engine.compact import CompactReport, reencode_drifted
from repro.engine.encode import AUTO_SAMPLE_ROWS, AUTO_SCHEME, EncodedBatch, encode_batches
from repro.engine.labels import decode_labels, encode_labels
from repro.exec.scan import ScanResult, scan_shards
from repro.obs import metrics_snapshot
from repro.obs import trace as obs_trace
from repro.storage.buffer_pool import BufferPool
from repro.storage.mmapio import map_file, publish_file, read_file

MANIFEST_NAME = "manifest.json"
#: Where v1 and v2 directories keep every label; format 3 keeps them in the shard files.
LABELS_NAME = "labels.npz"
FORMAT_VERSION = 3

#: Manifest versions :meth:`Dataset.open` understands.
SUPPORTED_FORMAT_VERSIONS = (1, 2, 3)

#: The dataset-level scheme name reported when shards mix schemes.
MIXED_SCHEME = "mixed"

#: Default mini-batch row count (matches the training default).
DEFAULT_BATCH_SIZE = 250

#: Shard filenames: ``shard-00005.bin`` when first written, then
#: ``shard-00005.g1.bin``, ``.g2`` ... as compaction re-encodes them (each
#: rewrite gets a fresh name so the old file stays valid until the manifest
#: swap publishes the new one).
_SHARD_FILENAME_RE = re.compile(r"^(?P<stem>.+?)(?:\.g(?P<gen>\d+))?\.bin$")


def _read_manifest(directory: Path | str) -> dict:
    """The parsed ``manifest.json`` at ``directory``: the one place it is read.

    Raises :class:`FileNotFoundError` when there is none and ``ValueError``
    for a format version :data:`SUPPORTED_FORMAT_VERSIONS` does not name.
    """
    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no shard manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise ValueError(
            f"unsupported shard format {version!r} "
            f"(expected one of {SUPPORTED_FORMAT_VERSIONS})"
        )
    return manifest


def read_extent(directory: Path | str) -> tuple[int, int]:
    """``(generation, n_rows)`` of the manifest at ``directory``, from its JSON alone.

    What a serving process polls between requests: the generation says
    whether the files moved, the row count sizes a score array for it.
    Manifests written before the counter existed report generation ``0``.
    """
    manifest = _read_manifest(directory)
    n_rows = sum(int(shard["n_rows"]) for shard in manifest["shards"])
    return int(manifest.get("generation", 0)), n_rows


def _next_generation(filename: str) -> str:
    """The filename a rewrite of shard file ``filename`` is staged under."""
    match = _SHARD_FILENAME_RE.match(filename)
    if match is None:
        raise ValueError(f"unrecognised shard filename {filename!r}")
    return f"{match.group('stem')}.g{int(match.group('gen') or 0) + 1}.bin"


@dataclass(frozen=True)
class ShardInfo:
    """Manifest row describing one shard file."""

    batch_id: int
    filename: str
    #: The payload's size: the file's first ``nbytes`` bytes.
    nbytes: int
    n_rows: int
    n_cols: int
    scheme: str = "TOC"
    #: The label block's size, after the payload (0 on a v1/v2 row).
    label_nbytes: int = 0
    #: ``zlib.crc32`` of the whole file (``None`` on a v1/v2 row).
    crc32: int | None = None


def shard_offsets(shards: Sequence[ShardInfo]) -> np.ndarray:
    """``offsets[i]``: global row id of shard ``i``'s first row; ``offsets[-1]``: the row count."""
    offsets = np.zeros(len(shards) + 1, dtype=np.int64)
    np.cumsum([shard.n_rows for shard in shards], out=offsets[1:])
    return offsets


def as_row_id(value) -> int:
    """One row id as a Python ``int``.

    ``TypeError`` for a float or a bool, which ``int()`` would quietly turn
    into some row (``1.7`` into row 1, ``True`` into row 1).
    """
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"a row id must be an integer, not {type(value).__name__}")
    return operator.index(value)


def row_id_array(row_ids) -> np.ndarray:
    """Row ids as a flat ``int64`` array of its own (a queued request keeps it).

    Takes a ``range`` (built with ``np.arange``, never iterated), an integer
    array or an iterable of integers.  A float or bool id — an array of
    them, a boolean mask — raises ``TypeError`` instead of being truncated to
    rows; an id past int64 raises ``OverflowError``.
    """
    if isinstance(row_ids, range):
        return np.arange(row_ids.start, row_ids.stop, row_ids.step, dtype=np.int64)
    items = row_ids.ravel() if isinstance(row_ids, np.ndarray) else list(row_ids)
    ids = np.asarray(items)
    if ids.size == 0:
        return np.empty(0, dtype=np.int64)
    if ids.dtype.kind in "fO":  # floats, or ints NumPy could not hold as one (0 and 2**63)
        return np.fromiter(map(as_row_id, items), dtype=np.int64, count=ids.size)
    if ids.dtype.kind not in "iu":
        raise TypeError(f"row ids must be integers, not {ids.dtype}")
    if ids.dtype.kind == "u" and ids.max() > np.iinfo(np.int64).max:
        raise OverflowError(f"row id {int(ids.max())} does not fit in int64")
    return ids.astype(np.int64)


def row_out_of_range(row_id: int, n_rows: int) -> IndexError:
    """The error every row-id path raises for an id outside ``[0, n_rows)``."""
    return IndexError(f"row {row_id} out of range [0, {n_rows})")


def check_row_ids(ids: np.ndarray, n_rows: int) -> None:
    """Raise :func:`row_out_of_range` for the first of ``ids`` outside ``[0, n_rows)``."""
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        raise row_out_of_range(int(ids[(ids < 0) | (ids >= n_rows)][0]), n_rows)


def locate_rows(offsets: np.ndarray, row_ids) -> tuple[np.ndarray, np.ndarray]:
    """Map global row ids onto ``(batch id, local row)`` arrays in one vectorised step.

    ``offsets`` is :func:`shard_offsets` of the shard table; a shard's batch
    id is its position in that table.  The whole request is range-checked
    before anything is returned, so a caller never touches a shard on behalf
    of a request that holds a bad id.
    """
    ids = row_id_array(row_ids)
    check_row_ids(ids, int(offsets[-1]))
    batch_ids = np.searchsorted(offsets, ids, side="right") - 1
    return batch_ids, ids - offsets[batch_ids]


def group_by_shard(batch_ids: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(batch id, request positions)`` per shard touched, positions in request order."""
    order = np.argsort(batch_ids, kind="stable")
    in_order = batch_ids[order]
    starts = np.flatnonzero(np.diff(in_order, prepend=-1))  # batch ids are >= 0
    return list(zip(in_order[starts].tolist(), np.split(order, starts[1:])))


def _scheme_of(shards: Sequence[ShardInfo]) -> str:
    """The uniform scheme name of ``shards``, or ``"mixed"`` when they differ."""
    names = {shard.scheme for shard in shards}
    return names.pop() if len(names) == 1 else MIXED_SCHEME


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


@dataclass(frozen=True)
class FsckReport:
    """What one :meth:`Dataset.fsck` sweep found (and possibly removed)."""

    #: Directory entries examined.
    examined: int
    #: Unreferenced shard-generation / temporary files found.
    orphans: tuple[str, ...]
    #: The subset of ``orphans`` actually deleted (empty on a dry run).
    removed: tuple[str, ...]
    #: Manifest-referenced shard files that are *missing* on disk.  These are
    #: real corruption — fsck reports them but never tries to repair.
    missing: tuple[str, ...]
    #: Manifest-referenced shard files whose size is not the manifest's
    #: ``nbytes + label_nbytes`` (every read of them raises
    #: ``EncodingError``); reported, never repaired.
    wrong_size: tuple[str, ...] = ()
    bytes_reclaimable: int = 0
    #: Manifest-referenced shard files of the right size whose CRC-32 is not
    #: the manifest's; reported, never repaired.
    corrupt: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not (self.orphans or self.missing or self.wrong_size or self.corrupt)


class Dataset:
    """A compressed, sharded dataset on disk: its manifest, labels and shard files.

    Build one with :meth:`create` or :meth:`open`; everything downstream
    (training, serving, scans, benchmarks) takes it.
    """

    def __init__(self, path: Path | str):
        """An empty handle on ``path``; :meth:`create` and :meth:`open` fill it."""
        self.path = Path(path)
        self.shards: list[ShardInfo] = []
        self._labels: dict[int, np.ndarray] = {}
        self.encode_seconds = 0.0
        #: What the encoder was asked for (e.g. ``"auto"``), for provenance.
        self.requested_scheme: str | list[str] | None = None
        #: Where the last encode ran (``"serial"`` or ``"process"``), for
        #: provenance.  Older manifests may also say ``"thread"``.
        self.encode_executor: str | None = None
        #: Bumped by every :meth:`_write`; what observers poll.
        self.generation = 0
        #: Files of a dataset :meth:`create` replaces, unlinked by its write.
        self._replacing: set[str] = set()
        #: The manifest format on disk; the next write rewrites anything older.
        self._format_version = FORMAT_VERSION

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: Path | str,
        features,
        labels: np.ndarray | None = None,
        *,
        scheme: str | Sequence[str] = AUTO_SCHEME,
        batch_size: int = DEFAULT_BATCH_SIZE,
        shuffle: bool = True,
        seed: int | None = 0,
        workers: int | None = None,
        workload: str = DEFAULT_WORKLOAD,
    ) -> "Dataset":
        """Encode a dataset to ``path`` (created if needed).

        ``features`` and ``labels`` are arrays, shuffled once (``shuffle``,
        ``seed``) and split into mini-batches of ``batch_size`` rows; with
        ``labels=None``, ``features`` is already a list of ``(X, y)``
        mini-batches, stored as given.

        ``scheme`` is any registered scheme name, ``"auto"`` (default) for
        per-shard advisor selection, or a sequence naming one scheme per
        batch; the manifest records the scheme actually used for every shard.

        ``workers`` (default: one per usable CPU) sets the encode fan-out:
        ``1``, or a process pinned to one CPU, encodes in this process;
        anything else runs a process pool.  The manifest's
        ``encode_executor`` records which of the two ran.

        ``workload`` (``"train"``, ``"serve"`` or ``"scan"``) is what
        ``"auto"`` selection optimises: the kernel calibration is resolved
        once (computed on first use, persisted as ``calibration.json`` next
        to the manifest) and each shard gets the scheme whose measured op
        mix is cheapest for that workload.
        """
        if labels is not None:
            features = split_minibatches(
                features, labels, batch_size=batch_size, shuffle=shuffle, seed=seed
            )
        dataset = cls(path)
        if cls.exists(path):
            # A dataset already at ``path`` is replaced: the generation goes
            # on (observers reopen on it) and its files go after the publish.
            previous = _read_manifest(path)
            dataset.generation = int(previous.get("generation", 0))
            dataset._replacing = {row["filename"] for row in previous["shards"]}
            dataset._format_version = previous["format_version"]
        dataset.requested_scheme = scheme if isinstance(scheme, str) else list(scheme)
        dataset.append(features, scheme=scheme, workers=workers, workload=workload)
        return dataset

    @classmethod
    def open(cls, path: Path | str) -> "Dataset":
        """Attach to an existing shard directory (manifest v1, v2 or v3).

        A v3 directory is opened from its manifest alone: no shard file is
        touched, and each shard's labels are read on the first
        :meth:`labels_for` that asks for them.  A v1 or v2 directory loads
        every label from its ``labels.npz`` here, as those formats did.
        """
        dataset = cls(path)
        manifest = _read_manifest(dataset.path)
        rows = manifest["shards"]
        if manifest["format_version"] == 1:
            # v1: one dataset-wide scheme; upgrade by stamping it per shard.
            rows = [{**row, "scheme": manifest["scheme"]} for row in rows]
        dataset.shards = [ShardInfo(**row) for row in rows]
        if manifest["format_version"] < FORMAT_VERSION:
            with np.load(dataset.path / LABELS_NAME) as archive:
                dataset._labels = {
                    s.batch_id: archive[f"y{s.batch_id:05d}"] for s in dataset.shards
                }
        dataset.encode_seconds = float(manifest.get("encode_seconds", 0.0))
        dataset.requested_scheme = manifest.get("requested_scheme", manifest.get("scheme"))
        dataset.encode_executor = manifest.get("encode_executor")
        dataset.generation = int(manifest.get("generation", 0))
        dataset._format_version = manifest["format_version"]
        return dataset

    @staticmethod
    def exists(path: Path | str) -> bool:
        """Whether ``path`` holds a shard manifest this class can open."""
        return (Path(path) / MANIFEST_NAME).exists()

    # -- writes ----------------------------------------------------------------

    def append(
        self,
        batches,
        labels: np.ndarray | None = None,
        *,
        scheme: str | Sequence[str] | None = None,
        batch_size: int | None = None,
        workers: int | None = None,
        workload: str = DEFAULT_WORKLOAD,
    ) -> list[ShardInfo]:
        """Append data as new shards: their files, then the manifest, published atomically.

        Accepts either a list of ``(features, labels)`` mini-batch tuples, or
        a ``(features, labels)`` array pair that is split in row order with
        ``batch_size`` (default: the dataset's widest existing shard).  New
        shards get the next batch ids.  The scheme defaults to the dataset's
        original request (``"auto"`` when that was per-batch), so an
        ``"auto"`` dataset keeps advising per shard as it grows, for
        ``workload`` (see :meth:`create`).
        """
        if labels is not None:
            size = batch_size or max(
                (s.n_rows for s in self.shards), default=DEFAULT_BATCH_SIZE
            )
            batches = split_minibatches(batches, labels, batch_size=size, shuffle=False)
        if scheme is None:
            requested = self.requested_scheme
            scheme = requested if isinstance(requested, str) else AUTO_SCHEME
        batches = list(batches)
        start = time.perf_counter()
        encoded, executor = encode_batches(
            [features for features, _ in batches],
            scheme,
            workers=workers,
            workload=workload,
            directory=self.path,
        )
        return self._write(
            encoded,
            [np.asarray(batch_labels) for _, batch_labels in batches],
            encode_seconds=time.perf_counter() - start,
            executor=executor,
        )

    def compact(
        self,
        readvise: bool = True,
        *,
        sample_rows: int = AUTO_SAMPLE_ROWS,
        workload: str = DEFAULT_WORKLOAD,
        max_shards: int | None = None,
        workers: int | None = None,
    ) -> CompactReport:
        """Re-advise every shard; re-encode only those whose winner changed.

        This is the drift repair pass: shards advised long ago (or encoded
        with a fixed scheme) are re-sampled through the Section 5.1 advisor,
        and only the shards whose winning scheme differs from the manifest's
        are re-encoded (:func:`repro.engine.compact.reencode_drifted`) and
        written in one pass of :meth:`_write`.  A second compact right after
        a first is a no-op (``report.changed`` is ``False``) that writes
        nothing, so the generation live services watch does not move.  With
        ``readvise=False`` nothing is re-encoded; a v1 or v2 directory (or a
        missing manifest) is still rewritten as format v3.

        ``workload`` is what the advisor optimises, as in :meth:`create`:
        the kernel calibration next to the manifest scores each scheme by
        the ops that workload actually runs, so the *same* data compacts
        differently for a training replica (``workload="train"``) than for
        a serving one (``workload="serve"``).

        Re-encoding fans out over ``workers`` as in :meth:`create`
        (``report.executor`` says where it ran); ``max_shards`` bounds how many
        shards one pass may rewrite, deferring the rest to later passes
        (``report.deferred`` counts them).
        """
        start = time.perf_counter()
        with obs_trace.span("engine.compact", n_shards=len(self.shards), readvise=readvise):
            encoded, report = reencode_drifted(
                self,
                readvise=readvise,
                sample_rows=sample_rows,
                workload=workload,
                max_shards=max_shards,
                workers=workers,
            )
            stale = self._format_version != FORMAT_VERSION or not self.exists(self.path)
            if encoded or stale:
                self._write(encoded)
        report.payload_bytes_after = self.total_payload_bytes()
        report.seconds = time.perf_counter() - start
        return report

    def _write(
        self,
        encoded: Sequence[EncodedBatch],
        labels: Sequence[np.ndarray] | None = None,
        *,
        encode_seconds: float = 0.0,
        executor: str | None = None,
    ) -> list[ShardInfo]:
        """The one write sequence: ``create``, ``append`` and ``compact`` all run it.

        With ``labels``, ``encoded`` are new batches added after the last
        shard; without, each replaces the payload of shard ``batch_id``
        (compaction's re-encodes), its rows and label block unchanged.

        1. Every batch is checked against the dataset — one width, as many
           labels as rows, labels a label block can hold, a rewrite the shape
           of the shard it replaces — and a bad one raises ``ValueError``
           naming it before any file is written.
        2. Each shard file (payload, then label block) is staged under a
           filename the live manifest does not name: ``shard-NNNNN.bin`` for
           a new shard, the next ``.gN.bin`` generation for a rewrite (or when
           :meth:`create` replaces a dataset that holds the plain name), so
           every live file stays valid until step 3.  A v1 or v2 dataset's
           other shards are staged the same way, each payload copied byte
           for byte and its labels taken from ``labels.npz``.
        3. The manifest is published with generation + 1: the one step that
           makes the staged files live.  A crash before it leaves the old
           dataset readable, and :meth:`fsck` sweeps what was staged.
        4. The files the old manifest named and the new one does not are
           unlinked: superseded rewrites, a replaced dataset's shards, and a
           v1 or v2 dataset's ``labels.npz``.

        This handle takes the new state only once the manifest is published,
        and keeps the labels it was given.  Returns the rows of ``encoded``.
        """
        shards = list(self.shards)
        live = {shard.filename for shard in shards} | self._replacing
        n_cols = shards[0].n_cols if shards else encoded[0].n_cols if encoded else 0
        staged: list[tuple[ShardInfo, bytes | memoryview, bytes | memoryview]] = []
        for position, enc in enumerate(encoded):
            if labels is None:
                old = shards[enc.batch_id]
                if (enc.n_rows, enc.n_cols) != (old.n_rows, old.n_cols):
                    raise ValueError(
                        f"re-encoded shard {old.batch_id} is {enc.n_rows} x {enc.n_cols}; "
                        f"the manifest records {old.n_rows} x {old.n_cols}"
                    )
                batch_id, filename = old.batch_id, _next_generation(old.filename)
                block = self._label_block(batch_id)
            else:
                if enc.n_cols != n_cols:
                    raise ValueError(
                        f"batch {position} has {enc.n_cols} columns but the dataset has {n_cols}"
                    )
                if labels[position].shape[:1] != (enc.n_rows,):
                    raise ValueError(
                        f"batch {position} has {enc.n_rows} rows but labels of shape "
                        f"{labels[position].shape}"
                    )
                batch_id = len(shards) + position
                filename = f"shard-{batch_id:05d}.bin"
                while filename in live:
                    filename = _next_generation(filename)
                block = encode_labels(labels[position])
            info = ShardInfo(batch_id, filename, enc.nbytes, enc.n_rows, enc.n_cols, enc.scheme)
            staged.append((info, enc.payload, block))
        if self._format_version < FORMAT_VERSION:
            # v1/v2 becomes v3 in this write: every shard not rewritten above is copied.
            live.add(LABELS_NAME)
            rewritten = {info.batch_id for info, _, _ in staged}
            staged += [
                (
                    replace(shard, filename=_next_generation(shard.filename)),
                    self.read_payload(shard.batch_id),
                    self._label_block(shard.batch_id),
                )
                for shard in shards
                if shard.batch_id not in rewritten
            ]

        self.path.mkdir(parents=True, exist_ok=True)
        written: list[ShardInfo] = []
        for info, payload, block in staged:
            data = b"".join((payload, block))
            publish_file(self.path / info.filename, data)
            written.append(replace(info, label_nbytes=len(block), crc32=zlib.crc32(data)))
        for info in written:
            if info.batch_id < len(shards):
                shards[info.batch_id] = info
            else:
                shards.append(info)
        written = written[: len(encoded)]
        all_labels = self._labels
        if labels is not None:
            all_labels = {**all_labels, **{i.batch_id: y for i, y in zip(written, labels)}}

        generation = self.generation + 1
        encode_seconds += self.encode_seconds
        executor = executor or self.encode_executor
        manifest = {
            "format_version": FORMAT_VERSION,
            "generation": generation,
            # Dataset-level summary (the uniform scheme, or "mixed"); the
            # authoritative per-shard schemes live in the shard rows.
            "scheme": _scheme_of(shards),
            "requested_scheme": self.requested_scheme,
            "encode_seconds": encode_seconds,
            "encode_executor": executor,
            "shards": [vars(s) for s in shards],
        }
        publish_file(self.path / MANIFEST_NAME, json.dumps(manifest, indent=2).encode())

        self.shards, self._labels, self.generation = shards, all_labels, generation
        self.encode_seconds, self.encode_executor = encode_seconds, executor
        self._format_version = FORMAT_VERSION
        self._replacing = set()
        for filename in sorted(live - {shard.filename for shard in shards}):
            (self.path / filename).unlink(missing_ok=True)
        return written

    def fsck(self, *, remove: bool = True) -> FsckReport:
        """Sweep leftovers of interrupted writes; report damaged shard files.

        A crash between staging and the manifest swap (or during a manifest
        publish) leaves files nothing references: staged ``shard-*.bin`` /
        ``shard-*.gN.bin`` files and dot-prefixed temporaries, and a crash
        right after a v1 or v2 directory's upgrade leaves its ``labels.npz``.
        The manifest is the single source of truth, so fsck deletes exactly
        those (``remove=False`` only reports them), never a file the manifest
        names and never a file it does not recognise.  Referenced shard files
        that are missing, whose size is not the manifest's ``nbytes +
        label_nbytes``, or whose CRC-32 is not the manifest's ``crc32`` (every
        v3 file is read whole to check it) are reported and never repaired.
        """
        referenced = {shard.filename: shard for shard in self.shards}
        kept = {MANIFEST_NAME}
        if self._format_version < FORMAT_VERSION:
            kept.add(LABELS_NAME)
        temporary_prefixes = (f".{MANIFEST_NAME}.tmp", f".{LABELS_NAME}.tmp")
        orphans: list[str] = []
        reclaimable = 0
        examined = 0
        for entry in sorted(self.path.iterdir()):
            name = entry.name
            if not entry.is_file() or name in referenced or name in kept:
                continue
            examined += 1
            # A shard file written but never renamed into place is ``.<name>.bin.tmp``.
            is_temporary = name.startswith(temporary_prefixes) or (
                name.startswith(".") and name.endswith(".bin.tmp")
            )
            if is_temporary or name == LABELS_NAME or _SHARD_FILENAME_RE.match(name):
                orphans.append(name)
                reclaimable += entry.stat().st_size
        if remove:
            for name in orphans:
                (self.path / name).unlink(missing_ok=True)
        missing: list[str] = []
        wrong_size: list[str] = []
        corrupt: list[str] = []
        for filename, shard in sorted(referenced.items()):
            path = self.path / filename
            try:
                size = path.stat().st_size
            except FileNotFoundError:
                missing.append(filename)
                continue
            if size != shard.nbytes + shard.label_nbytes:
                wrong_size.append(filename)
            elif shard.crc32 is not None and zlib.crc32(read_file(path)) != shard.crc32:
                corrupt.append(filename)
        return FsckReport(
            examined=examined,
            orphans=tuple(orphans),
            removed=tuple(orphans) if remove else (),
            missing=tuple(missing),
            wrong_size=tuple(wrong_size),
            bytes_reclaimable=reclaimable,
            corrupt=tuple(corrupt),
        )

    # -- schemes --------------------------------------------------------------

    @property
    def scheme(self) -> str:
        """The uniform scheme name, or ``"mixed"`` when shards differ."""
        return _scheme_of(self.shards)

    def scheme_counts(self) -> dict[str, int]:
        """How many shards each scheme compressed (manifest summary)."""
        return dict(Counter(shard.scheme for shard in self.shards))

    def decode(self, batch_id: int, payload=None) -> CompressedMatrix:
        """Rebuild one shard's compressed matrix with *its* scheme.

        ``payload`` (bytes or any buffer) lets callers that already hold the
        bytes (the trainer's buffer pool, a feature store's mapping) hand
        them over; otherwise the shard file is read once (:meth:`read_payload`).
        A payload whose matrix is not the shape the manifest records raises
        :class:`~repro.core.validate.EncodingError`: every reader sizes its
        output from the manifest.
        """
        if payload is None:
            payload = self.read_payload(batch_id)
        info = self.shards[batch_id]
        matrix = get_scheme(info.scheme).decompress_bytes(payload)
        if matrix.shape != (info.n_rows, info.n_cols):
            raise EncodingError(
                f"shard {batch_id} decodes to {matrix.shape[0]} x {matrix.shape[1]}; "
                f"the manifest records {info.n_rows} x {info.n_cols}"
            )
        return matrix

    # -- shard access ------------------------------------------------------------

    def read_payload(self, batch_id: int) -> memoryview:
        """Read one shard's payload straight from disk, for one pass (no caching).

        A read-only ``memoryview`` of the file's first ``nbytes`` bytes, over
        bytes the process owns (:func:`~repro.storage.mmapio.read_file`): what
        the trainer's pool, scans, ``take`` and compaction decode and then
        drop.  A file whose length is not the manifest's ``nbytes +
        label_nbytes`` raises :class:`~repro.core.validate.EncodingError`.
        """
        return self._checked(batch_id, read_file)

    def map_payload(self, batch_id: int) -> memoryview:
        """Map one shard's payload, for a reader that keeps it.

        A zero-copy view of the file's first ``nbytes`` bytes over a
        read-only mapping (:func:`~repro.storage.mmapio.map_file`), whose
        pages the OS page cache shares across processes and which stays on
        the inode it mapped.  A feature store takes one per shard and holds
        it; the length is checked as in :meth:`read_payload`.
        """
        return self._checked(batch_id, map_file)

    def _checked(self, batch_id: int, read) -> memoryview:
        """Shard ``batch_id``'s file through ``read``, held to the manifest's sizes; its payload."""
        info = self.shards[batch_id]
        # A str path: a fresh ``Path``, joined and rendered, costs half as much as the read.
        data = read(os.path.join(self.path, info.filename))
        if len(data) != info.nbytes + info.label_nbytes:
            raise EncodingError(
                f"shard {batch_id} ({info.filename}) holds {len(data)} bytes; "
                f"the manifest records {info.nbytes + info.label_nbytes}"
            )
        return data[: info.nbytes]

    def _label_block(self, batch_id: int) -> bytes | memoryview:
        """Shard ``batch_id``'s label block as stored (encoded from ``labels.npz`` on v1/v2)."""
        if self._format_version < FORMAT_VERSION:
            return encode_labels(self._labels[batch_id])
        info = self.shards[batch_id]
        block = read_file(os.path.join(self.path, info.filename), info.nbytes)
        if len(block) != info.label_nbytes:
            raise EncodingError(
                f"shard {batch_id} ({info.filename}) holds {len(block)} bytes past its "
                f"payload; the manifest records a label block of {info.label_nbytes}"
            )
        return block

    def labels_for(self, batch_id: int) -> np.ndarray:
        """Shard ``batch_id``'s labels: decoded from its label block on first ask, then kept.

        A handle that wrote the labels (``create``, ``append``) keeps them
        from the write and reads nothing.
        """
        labels = self._labels.get(batch_id)
        if labels is None:
            block = self._label_block(batch_id)
            labels = self._labels[batch_id] = decode_labels(block, self.shards[batch_id].n_rows)
        return labels

    def attach(self, pool: BufferPool) -> None:
        """Register every shard in ``pool`` behind a loader that is :meth:`read_payload`.

        A miss reads the file into bytes the pool then owns, so its byte
        budget bounds memory the process holds, and an eviction frees it.
        """
        for shard in self.shards:
            pool.put_on_disk(shard.batch_id, partial(self.read_payload, shard.batch_id))

    # -- queries ---------------------------------------------------------------

    def scan(
        self,
        *,
        columns: Sequence[int] | None = None,
        where=None,
        agg=None,
        limit: int | None = None,
        pushdown: bool = True,
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

        Each shard file is read and decoded in turn, once, and a
        selection with ``limit`` stops reading as soon as enough rows
        matched (``limit`` must be at least 1 — pass ``None`` for no limit).
        """

        def stream():
            offset = 0
            for shard in self.shards:
                yield self.decode(shard.batch_id), offset
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
        with its scheme's own ``row_slice``.
        """
        batch_ids, local_rows = locate_rows(shard_offsets(self.shards), rows)
        out = np.empty((batch_ids.size, self.n_cols), dtype=np.float64)
        for batch_id, positions in group_by_shard(batch_ids):
            out[positions] = self.decode(batch_id).row_slice(local_rows[positions])
        return out

    def __getitem__(self, key) -> np.ndarray:
        """Sugar over :meth:`take`: ``dataset[7]``, ``dataset[10:20]``,
        ``dataset[[3, 1, 4]]``.

        A scalar key is a row id: an integer, negative ones counting from
        the end (``TypeError`` for a float or a bool, never a truncated
        row); one out of range raises ``IndexError`` naming the key itself.
        """
        if isinstance(key, slice):
            return self.take(range(*key.indices(self.n_examples)))
        if isinstance(key, Iterable):
            return self.take(key)
        row_id = as_row_id(key)
        index = row_id + self.n_examples if row_id < 0 else row_id
        if not 0 <= index < self.n_examples:
            raise row_out_of_range(row_id, self.n_examples)
        return self.take([index])[0]

    def batches(self) -> Iterator[tuple[CompressedMatrix, np.ndarray]]:
        """Yield ``(compressed_matrix, labels)`` per shard, in batch order.

        The matrices are :class:`~repro.compression.base.CompressedMatrix`
        instances — every model and kernel in the stack runs on them directly
        through :mod:`repro.exec`, so iteration never densifies a shard.
        """
        for shard in self.shards:
            yield self.decode(shard.batch_id), self.labels_for(shard.batch_id)

    def labels(self) -> np.ndarray:
        """All labels concatenated in batch order."""
        return np.concatenate([self.labels_for(s.batch_id) for s in self.shards])

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        """The number of shards."""
        return len(self.shards)

    @property
    def n_examples(self) -> int:
        return sum(s.n_rows for s in self.shards)

    @property
    def n_cols(self) -> int:
        return self.shards[0].n_cols if self.shards else 0

    def payload_sizes(self) -> list[int]:
        return [s.nbytes for s in self.shards]

    def total_payload_bytes(self) -> int:
        return sum(self.payload_sizes())

    def stats(self, *, metrics: bool = False) -> DatasetStats:
        """Sizes, compression ratio, and the per-shard scheme mix.

        With ``metrics=True`` the result also carries the process-global
        observability snapshot (``repro.obs.metrics_snapshot()``) — encode,
        train, scan, compaction, and buffer-pool counters accumulated so far
        in this process, not scoped to this dataset alone.
        """
        return DatasetStats(
            path=str(self.path),
            n_shards=len(self),
            n_examples=self.n_examples,
            n_cols=self.n_cols,
            scheme=self.scheme,
            requested_scheme=self.requested_scheme,
            scheme_counts=self.scheme_counts(),
            payload_bytes=self.total_payload_bytes(),
            dense_bytes=self.n_examples * self.n_cols * 8,
            encode_seconds=self.encode_seconds,
            metrics=metrics_snapshot() if metrics else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return (
            f"Dataset({str(self.path)!r}, shards={len(self)}, "
            f"examples={self.n_examples}, scheme={self.scheme!r})"
        )

    # ``bench/layers.py`` still reads these two names; they go with the benchmark's next revision.
    @property
    def sharded(self) -> "Dataset":
        return self

    @property
    def directory(self) -> Path:
        return self.path


# ``bench/layers.py`` still imports this name; it goes with the benchmark's next revision.
ShardedDataset = Dataset

__all__ = [
    "AUTO_SCHEME",
    "DEFAULT_BATCH_SIZE",
    "FORMAT_VERSION",
    "LABELS_NAME",
    "MANIFEST_NAME",
    "MIXED_SCHEME",
    "Dataset",
    "DatasetStats",
    "FsckReport",
    "ShardInfo",
    "read_extent",
]
