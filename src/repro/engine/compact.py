"""Compaction with re-advising for long-lived shard directories.

Shards are advised once, at encode time (``scheme="auto"`` samples each
batch through the Section 5.1 advisor).  A dataset that lives long enough to
be appended to — or whose advisor has since changed — drifts: the scheme a
shard was encoded with may no longer be the scheme the advisor would pick
today.  Compaction closes that gap:

1. every shard is re-advised on a row sample — sliced straight off the
   compressed form with :func:`repro.exec.row_slice`, so an unchanged shard
   costs a sample decode, not a full one (byte-block schemes, whose only
   row path is a full inflate, are the exception);
2. only the shards whose winning scheme *changed* are re-encoded — the
   advisor rule (:func:`repro.engine.encode.advise_scheme`) and the
   calibration it ranks by (:func:`repro.engine.encode.advice_calibration`,
   ``calibration.json`` next to the manifest) are shared with encode time,
   so a directory ``"auto"`` encoded for a workload compacts to a no-op for
   that workload;
3. re-encoded payloads are staged under *new* generation filenames
   (:meth:`~repro.engine.shards.ShardedDataset.stage_shard`), the (format
   v2) manifest is rewritten atomically once at the end, and only then are
   the superseded files deleted.  A crash at any point leaves a readable
   dataset: before the manifest swap every reader still sees the old files
   with the old schemes; after it, the new ones.

With ``readvise=False`` the pass skips the advisor entirely and only
rewrites the manifest — a cheap way to normalise a v1 (single-scheme)
manifest to format v2 in place.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.compression.registry import get_scheme
from repro.core.calibration import DEFAULT_WORKLOAD, check_workload
from repro.engine.encode import AUTO_SAMPLE_ROWS, advice_calibration, advise_scheme, fan_out
from repro.engine.shards import (
    FORMAT_VERSION,
    LABELS_NAME,
    MANIFEST_NAME,
    ShardedDataset,
    shard_filename_stem,
)
from repro.exec import row_slice
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.storage.mmapio import read_file


@dataclass(frozen=True)
class ShardChange:
    """One shard re-encoded by a compaction pass."""

    batch_id: int
    scheme_before: str
    scheme_after: str
    nbytes_before: int
    nbytes_after: int

    @property
    def bytes_saved(self) -> int:
        return self.nbytes_before - self.nbytes_after


@dataclass
class CompactReport:
    """What one compaction pass examined and changed."""

    examined: int = 0
    changes: list[ShardChange] = field(default_factory=list)
    payload_bytes_before: int = 0
    payload_bytes_after: int = 0
    seconds: float = 0.0
    sample_rows: int = AUTO_SAMPLE_ROWS
    readvised: bool = True
    #: Shards whose winner changed but that the ``max_shards`` budget pushed
    #: to a later pass.
    deferred: int = 0
    #: Where the re-encodes ran, as :func:`repro.engine.encode.fan_out`
    #: reports it (``"serial"`` when nothing needed re-encoding).
    executor: str = "serial"

    @property
    def n_reencoded(self) -> int:
        return len(self.changes)

    @property
    def changed(self) -> bool:
        return bool(self.changes)

    @property
    def bytes_saved(self) -> int:
        return self.payload_bytes_before - self.payload_bytes_after


def _sample_rows(matrix, n_rows: int, sample_rows: int):
    """The dense row prefix of one shard the advisor samples.

    ``row_slice`` densifies only the sampled rows of a direct-op scheme and
    inflates a byte-block scheme whole, its only row path.
    """
    return row_slice(matrix, range(min(n_rows, sample_rows)))


def _reencode_one(task: tuple) -> tuple:
    """Worker body: re-encode one shard file with its new winning scheme.

    Top-level so it pickles into ``ProcessPoolExecutor`` workers.  The shard
    is re-read from its path inside the worker, one pass
    (:func:`~repro.storage.mmapio.read_file`), so only a path and two scheme
    names cross the pool boundary, never the payload.
    """
    batch_id, path, scheme_before, winner = task
    matrix = get_scheme(scheme_before).decompress_bytes(read_file(path))
    payload = get_scheme(winner).compress(matrix.to_dense()).to_bytes()
    return batch_id, payload


def _manifest_is_stale(dataset: ShardedDataset) -> bool:
    """True when the on-disk manifest needs a rewrite even with no re-encodes.

    Covers the v1 → v2 format upgrade (compact promises to leave every
    directory it touches on the current format) and a missing/corrupt
    manifest file.
    """
    try:
        manifest = json.loads((dataset.directory / MANIFEST_NAME).read_text())
    except (OSError, ValueError):
        return True
    return manifest.get("format_version") != FORMAT_VERSION


def compact_dataset(
    dataset: ShardedDataset,
    *,
    readvise: bool = True,
    sample_rows: int = AUTO_SAMPLE_ROWS,
    workload: str = DEFAULT_WORKLOAD,
    max_shards: int | None = None,
    workers: int | None = None,
) -> CompactReport:
    """Re-advise every shard and re-encode the ones whose winner changed.

    Returns a :class:`CompactReport`; ``report.changed`` is ``False`` when
    the directory was already optimal (which makes compaction idempotent —
    a second pass right after a first is always a no-op).

    The advisor ranks by the measured cost of ``workload`` from the
    directory's calibration, so the same shard directory compacts
    differently for a training replica (``"train"``) than for a serving one
    (``"serve"``).

    Re-encoding fans out over ``workers`` through the encode pipeline's
    :func:`repro.engine.encode.fan_out`.  ``max_shards`` caps
    how many shards one pass may rewrite: shards beyond the budget are left
    untouched and counted in ``report.deferred``, so an operator can spread
    a large rewrite over several bounded passes (each one still ends with a
    single atomic manifest swap).
    """
    check_workload(workload)
    if sample_rows < 1:
        raise ValueError("sample_rows must be at least 1")
    if max_shards is not None and max_shards < 0:
        raise ValueError("max_shards must be non-negative")
    calibration = advice_calibration(dataset.directory) if readvise else None
    start = time.perf_counter()
    report = CompactReport(
        examined=len(dataset.shards),
        payload_bytes_before=dataset.total_payload_bytes(),
        sample_rows=sample_rows,
        readvised=readvise,
    )
    superseded: list[str] = []
    with obs_trace.span(
        "engine.compact", n_shards=len(dataset.shards), readvise=readvise
    ):
        if readvise:
            # Advising is cheap (a sampled row-slice per shard), so it runs
            # serially; only the winners that changed pay a re-encode.
            pending: list[tuple] = []  # (shard, winner)
            for shard in list(dataset.shards):
                winner = advise_scheme(
                    _sample_rows(
                        dataset.decode(shard.batch_id), shard.n_rows, sample_rows
                    ),
                    workload=workload,
                    calibration=calibration,
                )
                if winner != shard.scheme:
                    pending.append((shard, winner))
            if max_shards is not None and len(pending) > max_shards:
                report.deferred = len(pending) - max_shards
                pending = pending[:max_shards]
            if pending:
                tasks = [
                    (s.batch_id, str(dataset.directory / s.filename), s.scheme, winner)
                    for s, winner in pending
                ]
                results, report.executor = fan_out(_reencode_one, tasks, workers)
                payloads = dict(results)
                for shard, winner in pending:
                    updated = dataset.stage_shard(
                        shard.batch_id, payloads[shard.batch_id], winner
                    )
                    superseded.append(shard.filename)
                    report.changes.append(
                        ShardChange(
                            batch_id=shard.batch_id,
                            scheme_before=shard.scheme,
                            scheme_after=winner,
                            nbytes_before=shard.nbytes,
                            nbytes_after=updated.nbytes,
                        )
                    )
        # One atomic manifest write publishes every staged shard (and, for a v1
        # directory, upgrades the on-disk manifest to format v2).  Only after
        # that swap are the superseded generation files garbage.  A true no-op
        # pass (nothing re-encoded, manifest already current) skips the rewrite
        # so the generation doesn't bump — live services watch it and would
        # otherwise re-open their stores for nothing.
        if superseded or _manifest_is_stale(dataset):
            dataset.rewrite_manifest()
        for filename in superseded:
            (dataset.directory / filename).unlink(missing_ok=True)
    report.payload_bytes_after = dataset.total_payload_bytes()
    report.seconds = time.perf_counter() - start
    obs_metrics.counter("engine.compact.passes").inc()
    obs_metrics.counter("engine.compact.shards_examined").inc(report.examined)
    obs_metrics.counter("engine.compact.shards_reencoded").inc(report.n_reencoded)
    obs_metrics.counter("engine.compact.shards_deferred").inc(report.deferred)
    return report


# -- fsck: sweeping interrupted passes -----------------------------------------


@dataclass(frozen=True)
class FsckReport:
    """What one :func:`fsck_dataset` sweep found (and possibly removed)."""

    #: Directory entries examined.
    examined: int
    #: Unreferenced shard-generation / temporary files found.
    orphans: tuple[str, ...]
    #: The subset of ``orphans`` actually deleted (empty on a dry run).
    removed: tuple[str, ...]
    #: Manifest-referenced shard files that are *missing* on disk.  These are
    #: real corruption — fsck reports them but never tries to repair.
    missing: tuple[str, ...]
    bytes_reclaimable: int = 0

    @property
    def clean(self) -> bool:
        return not self.orphans and not self.missing


def fsck_dataset(dataset: ShardedDataset, *, remove: bool = True) -> FsckReport:
    """Sweep a shard directory for leftovers of interrupted rewrites.

    A crash between :meth:`~repro.engine.shards.ShardedDataset.stage_shard`
    and the manifest swap (or during an atomic manifest / label rewrite)
    leaves files nothing references: staged ``shard-*.gN.bin`` generations
    and dot-prefixed temporaries.  Those are safe to delete — the manifest
    is the single source of truth — and this pass deletes exactly them,
    never a file the manifest still points at and never a file it does not
    recognise.  Missing referenced shard files are reported, not repaired.
    """
    referenced = {shard.filename for shard in dataset.shards}
    temporary_prefixes = (f".{MANIFEST_NAME}.tmp", f".{LABELS_NAME}.tmp")
    orphans: list[str] = []
    reclaimable = 0
    examined = 0
    for entry in sorted(dataset.directory.iterdir()):
        name = entry.name
        if not entry.is_file() or name in referenced or name in (MANIFEST_NAME, LABELS_NAME):
            continue
        examined += 1
        # A shard payload written but never renamed into place is ``.<name>.bin.tmp``.
        is_temporary = name.startswith(temporary_prefixes) or (
            name.startswith(".") and name.endswith(".bin.tmp")
        )
        is_stale_generation = shard_filename_stem(name) is not None
        if is_temporary or is_stale_generation:
            orphans.append(name)
            reclaimable += entry.stat().st_size
    removed: list[str] = []
    if remove:
        for name in orphans:
            (dataset.directory / name).unlink(missing_ok=True)
            removed.append(name)
    missing = sorted(
        filename
        for filename in referenced
        if not (dataset.directory / filename).exists()
    )
    return FsckReport(
        examined=examined,
        orphans=tuple(orphans),
        removed=tuple(removed),
        missing=tuple(missing),
        bytes_reclaimable=reclaimable,
    )
