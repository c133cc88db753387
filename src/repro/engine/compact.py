"""Compaction's advising policy for long-lived shard directories.

Shards are advised once, at encode time (``scheme="auto"`` samples each
batch through the Section 5.1 advisor).  A dataset that lives long enough to
be appended to — or whose advisor has since changed — drifts: the scheme a
shard was encoded with may no longer be the scheme the advisor would pick
today.  Compaction closes that gap:

1. every shard is re-advised on a row sample — sliced straight off the
   compressed form with its ``row_slice``, so an unchanged shard
   costs a sample decode, not a full one (byte-block schemes, whose only
   row path is a full inflate, are the exception);
2. only the shards whose winning scheme *changed* are re-encoded — the
   advisor rule (:func:`repro.engine.encode.advise_scheme`) and the
   calibration it ranks by (:func:`repro.engine.encode.advice_calibration`,
   ``calibration.json`` next to the manifest) are shared with encode time,
   so a directory ``"auto"`` encoded for a workload compacts to a no-op for
   that workload;
3. the re-encoded payloads go to :meth:`repro.engine.shards.Dataset.compact`,
   which writes them through the dataset's one write sequence: staged
   under *new* generation filenames, published by one atomic (format v2)
   manifest swap, and only then are the superseded files deleted.  A
   crash at any point leaves a readable dataset: before the manifest swap
   every reader still sees the old files with the old schemes; after it,
   the new ones.

With ``readvise=False`` the pass skips the advisor entirely; ``compact``
then only rewrites a manifest that is not format v2 yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.compression.registry import get_scheme
from repro.core.calibration import DEFAULT_WORKLOAD, check_workload
from repro.engine.encode import (
    AUTO_SAMPLE_ROWS,
    EncodedBatch,
    advice_calibration,
    advise_scheme,
    fan_out,
)
from repro.obs import metrics as obs_metrics
from repro.storage.mmapio import read_file

if TYPE_CHECKING:
    from repro.engine.shards import Dataset


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
    return matrix.row_slice(range(min(n_rows, sample_rows)))


def _reencode_one(task: tuple) -> EncodedBatch:
    """Worker body: re-encode one shard file with its new winning scheme.

    Top-level so it pickles into ``ProcessPoolExecutor`` workers.  The shard
    is re-read from its path inside the worker, one pass
    (:func:`~repro.storage.mmapio.read_file`), so only a path and two scheme
    names cross the pool boundary, never the payload.
    """
    batch_id, path, scheme_before, winner = task
    matrix = get_scheme(scheme_before).decompress_bytes(read_file(path))
    payload = get_scheme(winner).compress(matrix.to_dense()).to_bytes()
    n_rows, n_cols = matrix.shape
    return EncodedBatch(batch_id, payload, n_rows, n_cols, scheme=winner)


def reencode_drifted(
    dataset: Dataset,
    *,
    readvise: bool = True,
    sample_rows: int = AUTO_SAMPLE_ROWS,
    workload: str = DEFAULT_WORKLOAD,
    max_shards: int | None = None,
    workers: int | None = None,
) -> tuple[list[EncodedBatch], CompactReport]:
    """Re-advise every shard and re-encode the ones whose winner changed.

    Returns the re-encoded batches, for :meth:`Dataset.compact` to write, and
    a :class:`CompactReport` whose ``changes`` name them; nothing is written
    here.  The arguments are :meth:`Dataset.compact`'s.  Re-encoding fans
    out over ``workers`` through :func:`repro.engine.encode.fan_out`; the
    winners past ``max_shards`` are left for a later pass and counted in
    ``report.deferred``.
    """
    check_workload(workload)
    if sample_rows < 1:
        raise ValueError("sample_rows must be at least 1")
    if max_shards is not None and max_shards < 0:
        raise ValueError("max_shards must be non-negative")
    report = CompactReport(
        examined=len(dataset.shards),
        payload_bytes_before=dataset.total_payload_bytes(),
        sample_rows=sample_rows,
        readvised=readvise,
    )
    encoded: list[EncodedBatch] = []
    if readvise:
        calibration = advice_calibration(dataset.path)
        # Advising is cheap (a sampled row-slice per shard), so it runs
        # serially; only the winners that changed pay a re-encode.
        pending: list[tuple] = []  # (shard, winner)
        for shard in dataset.shards:
            winner = advise_scheme(
                _sample_rows(dataset.decode(shard.batch_id), shard.n_rows, sample_rows),
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
                (s.batch_id, str(dataset.path / s.filename), s.scheme, winner)
                for s, winner in pending
            ]
            encoded, report.executor = fan_out(_reencode_one, tasks, workers)
            report.changes = [
                ShardChange(
                    batch_id=shard.batch_id,
                    scheme_before=shard.scheme,
                    scheme_after=enc.scheme,
                    nbytes_before=shard.nbytes,
                    nbytes_after=enc.nbytes,
                )
                for (shard, _), enc in zip(pending, encoded)
            ]
    obs_metrics.counter("engine.compact.passes").inc()
    obs_metrics.counter("engine.compact.shards_examined").inc(report.examined)
    obs_metrics.counter("engine.compact.shards_reencoded").inc(report.n_reencoded)
    obs_metrics.counter("engine.compact.shards_deferred").inc(report.deferred)
    return encoded, report
