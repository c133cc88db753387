"""On-disk shard store for compressed mini-batches.

A sharded dataset is a directory holding one blob file per compressed
mini-batch plus a JSON manifest and the label vectors:

.. code-block:: text

    shards/
      manifest.json     # per-shard schemes, shard table, encode provenance
      labels.npz        # one label array per batch
      shard-00000.bin   # serialised compressed batch 0
      shard-00001.bin   # ...

Blob files hold exactly what ``CompressedMatrix.to_bytes`` produced, so any
registered scheme round-trips through its own ``decompress_bytes``.  The
store is deliberately dumb — durability and layout live here, while caching
policy stays in :class:`repro.storage.buffer_pool.BufferPool`, which shards
attach to as lazy :class:`~repro.storage.buffer_pool.DiskBlob` entries.

Manifest format v2 records the compression scheme *per shard* (what
``scheme="auto"`` encoding produces on mixed-density data); v1 manifests —
one dataset-wide ``"scheme"`` key — are still read and upgraded on the fly
by applying that scheme to every shard.

Every manifest rewrite also bumps a monotonically increasing ``generation``
counter.  Shard files are immutable *between* manifest swaps, so the
generation is the one value a read-only observer (a serving worker sharing
the directory) needs to poll: unchanged generation means every file it has
open is still the live one; a bumped generation means an append/compact
published new files and the observer should re-open
(:func:`read_generation` reads it without constructing a dataset).
"""

from __future__ import annotations

import json
import operator
import os
import re
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.compression.base import CompressedMatrix, CompressionScheme
from repro.compression.registry import get_scheme
from repro.core.validate import EncodingError
from repro.engine.encode import (
    AUTO_SCHEME,
    EncodedBatch,
    encode_batches,
    resolve_executor,
    resolve_workers,
)
from repro.storage.buffer_pool import BufferPool
from repro.storage.mmapio import map_file
from repro.storage.pages import stored_bytes
from repro.storage.table import BlobTable

MANIFEST_NAME = "manifest.json"
LABELS_NAME = "labels.npz"
FORMAT_VERSION = 2

#: Manifest versions :meth:`ShardedDataset.open` understands.
SUPPORTED_FORMAT_VERSIONS = (1, 2)

#: The dataset-level scheme name reported when shards mix schemes.
MIXED_SCHEME = "mixed"

#: Shard filenames: ``shard-00005.bin`` when first written, then
#: ``shard-00005.g1.bin``, ``.g2`` ... as :meth:`ShardedDataset.stage_shard`
#: re-encodes them (each rewrite gets a fresh name so the old file stays
#: valid until the manifest swap publishes the new one).
_SHARD_FILENAME_RE = re.compile(r"^(?P<stem>.+?)(?:\.g(?P<gen>\d+))?\.bin$")


def read_generation(directory: Path | str) -> int:
    """The manifest generation at ``directory``, cheaply.

    Reads only the manifest JSON (no labels, no shard table objects) — what
    a serving worker polls between requests.  Manifests written before the
    counter existed report generation ``0``; a missing manifest raises
    :class:`FileNotFoundError` like :meth:`ShardedDataset.open` would.
    """
    return read_extent(directory)[0]


def read_extent(directory: Path | str) -> tuple[int, int]:
    """``(generation, n_rows)`` of the manifest at ``directory``, from its JSON alone.

    What :func:`read_generation` reads, plus the row count a score array
    for that generation is sized by.
    """
    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no shard manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    n_rows = sum(int(shard["n_rows"]) for shard in manifest["shards"])
    return int(manifest.get("generation", 0)), n_rows


def shard_filename_stem(name: str) -> str | None:
    """The generation-free stem of a shard filename, or ``None`` for other files.

    ``shard-00005.bin`` and ``shard-00005.g2.bin`` both map to
    ``shard-00005`` — what fsck uses to recognise stale staged generations.
    """
    match = _SHARD_FILENAME_RE.match(name)
    return match.group("stem") if match else None


def _publish_file(path: Path, payload) -> None:
    """Write ``payload`` to a dot-temp file beside ``path``, then ``os.replace`` it in.

    A reader may hold a mapping of the file already at ``path`` (every shard
    read is a :func:`~repro.storage.mmapio.map_file` view, and feature stores keep
    them).  Rewriting that file in place would truncate the mapped inode
    under the reader — wrong rows, or SIGBUS on a page past the new end of
    file; the rename leaves the old mapping on the old inode.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


@dataclass(frozen=True)
class ShardInfo:
    """Manifest row describing one shard file."""

    batch_id: int
    filename: str
    nbytes: int
    n_rows: int
    n_cols: int
    scheme: str = "TOC"


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


class ShardedDataset:
    """A directory of compressed mini-batch shards plus manifest and labels."""

    def __init__(
        self,
        directory: Path,
        shards: list[ShardInfo],
        labels: dict[int, np.ndarray],
        encode_seconds: float = 0.0,
        requested_scheme: str | list[str] | None = None,
        encode_executor: str | None = None,
        generation: int = 0,
    ):
        self.directory = Path(directory)
        self.shards = list(shards)
        self._labels = labels
        self.encode_seconds = encode_seconds
        #: What the encoder was asked for (e.g. ``"auto"``), for provenance.
        self.requested_scheme = requested_scheme
        #: The executor kind that last encoded shards, for provenance.
        self.encode_executor = encode_executor
        #: Bumped by every :meth:`rewrite_manifest`; what observers poll.
        self.generation = generation
        self._schemes: dict[str, CompressionScheme] = {}

    # -- creation -------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Path | str,
        batches: list[tuple[np.ndarray, np.ndarray]],
        scheme_name: str | Sequence[str] = "TOC",
        *,
        workers: int | None = None,
        executor: str = "auto",
        workload: str | None = None,
        calibration=None,
    ) -> "ShardedDataset":
        """Encode ``(features, labels)`` batches in parallel and persist them.

        ``scheme_name`` may be any registered scheme, ``"auto"`` to let the
        advisor pick per batch, or a sequence naming a scheme per batch; the
        manifest records the scheme actually used for every shard.
        ``workload``/``calibration`` switch ``"auto"`` to the measured cost
        model (see :mod:`repro.core.calibration`).
        """
        if not batches:
            raise ValueError("at least one mini-batch is required")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)

        start = time.perf_counter()
        encoded = encode_batches(
            [features for features, _ in batches],
            scheme_name,
            workers=workers,
            executor=executor,
            workload=workload,
            calibration=calibration,
        )
        encode_seconds = time.perf_counter() - start

        shards: list[ShardInfo] = []
        labels: dict[int, np.ndarray] = {}
        for enc, (_, batch_labels) in zip(encoded, batches):
            info = cls._write_shard(directory, enc)
            shards.append(info)
            labels[enc.batch_id] = np.asarray(batch_labels)

        requested = scheme_name if isinstance(scheme_name, str) else list(scheme_name)
        dataset = cls(
            directory,
            shards,
            labels,
            encode_seconds,
            requested_scheme=requested,
            # Provenance: the executor actually used, not the requested kind
            # ("auto" resolves differently per machine).
            encode_executor=resolve_executor(executor, resolve_workers(workers)),
        )
        dataset._write_labels()
        dataset.rewrite_manifest()
        return dataset

    @staticmethod
    def _write_shard(directory: Path, enc: EncodedBatch) -> ShardInfo:
        filename = f"shard-{enc.batch_id:05d}.bin"
        _publish_file(directory / filename, enc.payload)
        return ShardInfo(
            batch_id=enc.batch_id,
            filename=filename,
            nbytes=enc.nbytes,
            n_rows=enc.n_rows,
            n_cols=enc.n_cols,
            scheme=enc.scheme,
        )

    @classmethod
    def open(cls, directory: Path | str) -> "ShardedDataset":
        """Load an existing shard directory from its manifest (v1 or v2)."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"no shard manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        version = manifest.get("format_version")
        if version not in SUPPORTED_FORMAT_VERSIONS:
            raise ValueError(
                f"unsupported shard format {version!r} "
                f"(expected one of {SUPPORTED_FORMAT_VERSIONS})"
            )
        if version == 1:
            # v1: one dataset-wide scheme; upgrade by stamping it per shard.
            default_scheme = manifest["scheme"]
            shards = [
                ShardInfo(**row, scheme=default_scheme) for row in manifest["shards"]
            ]
        else:
            shards = [ShardInfo(**row) for row in manifest["shards"]]
        with np.load(directory / LABELS_NAME) as archive:
            labels = {s.batch_id: archive[f"y{s.batch_id:05d}"] for s in shards}
        return cls(
            directory,
            shards,
            labels,
            encode_seconds=float(manifest.get("encode_seconds", 0.0)),
            requested_scheme=manifest.get("requested_scheme", manifest.get("scheme")),
            encode_executor=manifest.get("encode_executor"),
            generation=int(manifest.get("generation", 0)),
        )

    # -- durability ------------------------------------------------------------

    def _write_labels(self) -> None:
        """Atomically persist the label archive (write-new, then rename)."""
        tmp = self.directory / f".{LABELS_NAME}.tmp.npz"
        np.savez(tmp, **{f"y{bid:05d}": y for bid, y in self._labels.items()})
        os.replace(tmp, self.directory / LABELS_NAME)

    def rewrite_manifest(self) -> Path:
        """Atomically rewrite the manifest (format v2) from the current state.

        The new manifest is written next to the old one and swapped in with
        ``os.replace``, so a crash mid-write never leaves a torn manifest —
        readers see either the old dataset or the new one.

        Each rewrite bumps :attr:`generation` *before* the swap, so the
        published manifest always carries a strictly higher generation than
        the one it replaced — pollers (:func:`read_generation`) treat any
        change as "files may have moved, re-open".
        """
        self.generation += 1
        manifest = {
            "format_version": FORMAT_VERSION,
            "generation": self.generation,
            # Dataset-level summary (the uniform scheme, or "mixed"); the
            # authoritative per-shard schemes live in the shard rows.
            "scheme": self.scheme_name,
            "requested_scheme": self.requested_scheme,
            "encode_seconds": self.encode_seconds,
            "encode_executor": self.encode_executor,
            "shards": [vars(s) for s in self.shards],
        }
        path = self.directory / MANIFEST_NAME
        tmp = self.directory / f".{MANIFEST_NAME}.tmp"
        tmp.write_text(json.dumps(manifest, indent=2))
        os.replace(tmp, path)
        return path

    # -- mutation --------------------------------------------------------------

    def append(
        self,
        batches: list[tuple[np.ndarray, np.ndarray]],
        scheme_name: str | Sequence[str] | None = None,
        *,
        workers: int | None = None,
        executor: str = "auto",
        workload: str | None = None,
        calibration=None,
    ) -> list[ShardInfo]:
        """Encode and persist additional ``(features, labels)`` batches.

        New shards get the next batch ids; the manifest and label archive are
        rewritten atomically once the shard files are on disk.  ``scheme_name``
        defaults to what the dataset was originally encoded with (``"auto"``
        when the original request was per-batch), so appended shards keep
        flowing through the same advisor policy.
        """
        if not batches:
            raise ValueError("at least one mini-batch is required")
        if scheme_name is None:
            requested = self.requested_scheme
            scheme_name = requested if isinstance(requested, str) else AUTO_SCHEME
        n_cols = self.shards[0].n_cols if self.shards else None
        for features, _ in batches:
            width = np.asarray(features).shape[1]
            if n_cols is not None and width != n_cols:
                raise ValueError(
                    f"appended batch has {width} columns but the dataset has {n_cols}"
                )

        start = time.perf_counter()
        encoded = encode_batches(
            [features for features, _ in batches],
            scheme_name,
            workers=workers,
            executor=executor,
            workload=workload,
            calibration=calibration,
        )
        self.encode_seconds += time.perf_counter() - start
        self.encode_executor = resolve_executor(executor, resolve_workers(workers))

        next_id = max((s.batch_id for s in self.shards), default=-1) + 1
        added: list[ShardInfo] = []
        for enc, (_, batch_labels) in zip(encoded, batches):
            enc = replace(enc, batch_id=next_id + enc.batch_id)
            info = self._write_shard(self.directory, enc)
            self.shards.append(info)
            self._labels[enc.batch_id] = np.asarray(batch_labels)
            added.append(info)
        self._write_labels()
        self.rewrite_manifest()
        return added

    def stage_shard(self, batch_id: int, payload: bytes, scheme_name: str) -> ShardInfo:
        """Stage a re-encoded payload for one shard under a *new* filename.

        The replacement file is written next to the old one (generation
        suffix: ``shard-00005.bin`` -> ``shard-00005.g1.bin`` -> ``.g2`` ...)
        and nothing references it until the caller publishes it with one
        :meth:`rewrite_manifest`.  That ordering is what makes multi-shard
        rewrites crash-safe: until the manifest swap, every reader keeps
        decoding the old file with the old scheme; after it, the new file
        with the new one.  Callers delete the superseded files only after
        the swap (see :func:`repro.engine.compact.compact_dataset`).
        """
        index = next(
            (i for i, s in enumerate(self.shards) if s.batch_id == batch_id), None
        )
        if index is None:
            raise KeyError(f"no shard with batch id {batch_id}")
        info = self.shards[index]
        match = _SHARD_FILENAME_RE.match(info.filename)
        if match is None:
            raise ValueError(f"unrecognised shard filename {info.filename!r}")
        generation = int(match.group("gen") or 0) + 1
        filename = f"{match.group('stem')}.g{generation}.bin"
        _publish_file(self.directory / filename, payload)
        updated = replace(
            info, filename=filename, nbytes=len(payload), scheme=scheme_name
        )
        self.shards[index] = updated
        return updated

    # -- schemes --------------------------------------------------------------

    @property
    def scheme_name(self) -> str:
        """The uniform scheme name, or ``"mixed"`` when shards differ."""
        names = {shard.scheme for shard in self.shards}
        return names.pop() if len(names) == 1 else MIXED_SCHEME

    @property
    def is_mixed(self) -> bool:
        return len({shard.scheme for shard in self.shards}) > 1

    def scheme_counts(self) -> dict[str, int]:
        """How many shards each scheme compressed (manifest summary)."""
        return dict(Counter(shard.scheme for shard in self.shards))

    def scheme_for(self, batch_id: int) -> CompressionScheme:
        """The (cached) scheme instance that decodes shard ``batch_id``."""
        name = self.shards[batch_id].scheme
        if name not in self._schemes:
            self._schemes[name] = get_scheme(name)
        return self._schemes[name]

    def decode(self, batch_id: int, payload=None) -> CompressedMatrix:
        """Rebuild one shard's compressed matrix with *its* scheme.

        ``payload`` (bytes or any buffer) lets callers that already hold the
        bytes (the trainer's buffer pool, a feature store's mapping) hand
        them over; otherwise the shard file is mapped (:meth:`read_payload`).
        A payload whose matrix is not the shape the manifest records raises
        :class:`~repro.core.validate.EncodingError`: every reader sizes its
        output from the manifest.
        """
        if payload is None:
            payload = self.read_payload(batch_id)
        matrix = self.scheme_for(batch_id).decompress_bytes(payload)
        info = self.shards[batch_id]
        if matrix.shape != (info.n_rows, info.n_cols):
            raise EncodingError(
                f"shard {batch_id} decodes to {matrix.shape[0]} x {matrix.shape[1]}; "
                f"the manifest records {info.n_rows} x {info.n_cols}"
            )
        return matrix

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.shards)

    def read_payload(self, batch_id: int):
        """Read one shard's payload straight from disk (no caching).

        Returns a zero-copy ``memoryview`` over a read-only mmap of the
        shard file; every scheme's ``decompress_bytes`` decodes straight
        out of it.
        """
        return map_file(self.directory / self.shards[batch_id].filename)

    def labels_for(self, batch_id: int) -> np.ndarray:
        return self._labels[batch_id]

    def attach(self, pool: BufferPool) -> None:
        """Register every shard in ``pool`` as a lazy on-disk blob."""
        for shard in self.shards:
            path = self.directory / shard.filename
            pool.put_on_disk(shard.batch_id, size=shard.nbytes, loader=partial(map_file, path))

    def as_blob_table(self, pool: BufferPool) -> BlobTable:
        """Expose the shards as a Bismarck-style blob table over ``pool``.

        The decoder for every row is resolved from the manifest; the old
        ``scheme`` parameter (deprecated in the previous release) is gone.
        """
        table = BlobTable(None, pool)
        for shard in self.shards:
            path = self.directory / shard.filename
            table.add_encoded(
                shard.batch_id,
                self._labels[shard.batch_id],
                size=shard.nbytes,
                loader=partial(map_file, path),
                scheme=self.scheme_for(shard.batch_id),
            )
        return table

    # -- statistics -------------------------------------------------------------

    @property
    def n_examples(self) -> int:
        return sum(s.n_rows for s in self.shards)

    def payload_sizes(self) -> list[int]:
        return [s.nbytes for s in self.shards]

    def total_payload_bytes(self) -> int:
        return sum(self.payload_sizes())

    def physical_bytes(self) -> int:
        """On-disk size after page layout (includes the fudge factor)."""
        return stored_bytes(self.payload_sizes())


__all__ = [
    "AUTO_SCHEME",
    "FORMAT_VERSION",
    "LABELS_NAME",
    "MANIFEST_NAME",
    "MIXED_SCHEME",
    "ShardInfo",
    "ShardedDataset",
    "read_extent",
    "read_generation",
    "shard_filename_stem",
]
