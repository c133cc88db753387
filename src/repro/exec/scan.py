"""Predicate push-down scans over compressed shards.

The paper's value-index and code-table encodings can answer selections and
aggregations *on the compressed data*: a comparison against a CVI/DVI shard
only has to test the (tiny) value dictionary and gather booleans through the
bit-packed codes, and column aggregates fall out of the code frequencies —
no dense block is ever materialised.  TOC shards take every column the scan
touches (predicate, projection, aggregates) out of one pass of Algorithm 4's
recurrence over the decode tree, keeping only the keys of those columns (a
NaN or ±inf elsewhere in a row never leaks in), and gather matched rows with
the row-slice decode.  Everything else — DEN, CSR, CLA, the byte-block
schemes — runs the always-correct dense fallback: one ``to_dense`` per
shard, then a NumPy mask.

The executor mirrors :mod:`repro.exec.dispatch`: an ordered registry of
``(predicate, reader)`` pairs resolves the scan reader for each shard's
representation, and :func:`register_scan_reader` adds fast paths for new
schemes without touching the executor.  :func:`scan_shards` streams a whole
:class:`~repro.engine.shards.Dataset`, each shard read once
from its file, into the per-shard scan, combining selections (with an early-exit ``limit``) or aggregate partials
across shards.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.compression.cvi import CVIMatrix
from repro.compression.dvi import DVIMatrix
from repro.compression.toc_scheme import TOCCompressedMatrix
from repro.exec import dispatch
from repro.exec.predicates import (
    COMPARE_OPS,
    Aggregate,
    Predicate,
    parse_aggregates,
    parse_predicate,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


#: Above this matched fraction of a shard, materialising a selection through
#: one dense decode beats the compressed row gather (see ``_ShardContext.select``).
SELECT_DENSE_THRESHOLD = 0.25


# -- per-scheme readers --------------------------------------------------------


class ScanReader:
    """Column access on one compressed representation, without full decode.

    The defaults derive ``columns``, ``compare`` and ``column_stats`` from
    ``column``, so a new scheme's reader only has to extract one column
    cheaply to join the fast path.  A reader overrides ``columns`` to take
    several columns in one pass, and ``compare`` / ``column_stats`` when it
    answers them without the column (a dictionary probe); every column a
    default would extract is instead extracted once per shard, in one
    ``columns`` call (see :class:`_ShardContext`).
    """

    name = "reader"
    #: Whether this reader answers predicates on the compressed form (the
    #: dense fallback reader sets this False; scan stats count the split).
    pushdown = True

    def column(self, matrix, col: int) -> np.ndarray:
        """One dense float64 column (implicit zeros included)."""
        raise NotImplementedError

    def columns(self, matrix, cols: Sequence[int]) -> np.ndarray:
        """Columns ``cols`` as one dense float64 ``(rows, len(cols))`` block."""
        block = np.empty((matrix.shape[0], len(cols)), dtype=np.float64)
        for j, col in enumerate(cols):
            block[:, j] = self.column(matrix, col)
        return block

    def compare(self, matrix, col: int, op: str, value: float) -> np.ndarray:
        """Boolean mask of rows where ``column OP value`` holds."""
        return COMPARE_OPS[op](self.column(matrix, col), value)

    def column_stats(
        self, matrix, col: int, mask: np.ndarray | None
    ) -> tuple[int, float, float, float] | None:
        """``(count, sum, min, max)`` of the column over the kept rows.

        Returns ``None`` when no rows are kept (min/max are undefined).
        """
        return _stats(self.column(matrix, col), mask)

    def select_rows(self, matrix, rows: np.ndarray) -> np.ndarray | None:
        """Materialise ``rows`` from the compressed form, or ``None``.

        ``None`` means this representation has no row gather cheaper than
        one dense decode; the executor then materialises through the
        shard's dense block.
        """
        return None


def _stats(values: np.ndarray, mask: np.ndarray | None) -> tuple[int, float, float, float] | None:
    """``(count, sum, min, max)`` of ``values`` over the kept rows, ``None`` if none are."""
    if mask is not None:
        values = values[mask]
    if values.size == 0:
        return None
    return values.size, float(values.sum()), float(values.min()), float(values.max())


def _derived(reader: ScanReader, method: str) -> bool:
    """Whether ``reader``'s ``method`` is :class:`ScanReader`'s, which extracts the column."""
    return getattr(type(reader), method) is getattr(ScanReader, method)


class DVIReader(ScanReader):
    """Value-index push-down for DVI: probe the dictionary, gather codes.

    A comparison tests the ``k`` distinct dictionary values once, then maps
    the answer through the column's bit-packed codes — O(rows) boolean
    gathers instead of an O(rows x cols) float decode.  Aggregates come from
    the code frequencies (one ``bincount`` over the column codes).
    """

    name = "DVI-value-index"

    def _column_codes(self, matrix: DVIMatrix, col: int) -> np.ndarray:
        return matrix.value_index.codes.reshape(matrix.shape)[:, col]

    def column(self, matrix: DVIMatrix, col: int) -> np.ndarray:
        return matrix.value_index.dictionary[self._column_codes(matrix, col)]

    def compare(self, matrix: DVIMatrix, col: int, op: str, value: float) -> np.ndarray:
        dictionary_mask = COMPARE_OPS[op](matrix.value_index.dictionary, value)
        return dictionary_mask[self._column_codes(matrix, col)]

    def column_stats(self, matrix: DVIMatrix, col: int, mask: np.ndarray | None):
        codes = self._column_codes(matrix, col)
        if mask is not None:
            codes = codes[mask]
        if codes.size == 0:
            return None
        dictionary = matrix.value_index.dictionary
        frequencies = np.bincount(codes, minlength=dictionary.size)
        kept = frequencies > 0
        present = dictionary[kept]
        # Only values that occur are multiplied: 0 * inf would be NaN.
        total = float((frequencies[kept] * present).sum())
        return int(codes.size), total, float(present.min()), float(present.max())

    select_rows = staticmethod(dispatch.row_slice)


class CVIReader(ScanReader):
    """Value-index push-down for CVI: stored cells via the dictionary, the
    rest are implicit zeros.

    Only the stored entries of the probed column are touched (an O(nnz)
    index scan); the predicate's answer for every unstored cell is the
    answer for 0.0, computed once.
    """

    name = "CVI-value-index"

    def _column_entries(self, matrix: CVIMatrix, col: int) -> tuple[np.ndarray, np.ndarray]:
        """``(row_ids, code_ids)`` of the stored cells in ``col``."""
        positions = np.flatnonzero(matrix.col_indices == col)
        rows = np.searchsorted(matrix.indptr, positions, side="right") - 1
        return rows, matrix.value_index.codes[positions]

    def column(self, matrix: CVIMatrix, col: int) -> np.ndarray:
        rows, codes = self._column_entries(matrix, col)
        values = np.zeros(matrix.n_rows, dtype=np.float64)
        values[rows] = matrix.value_index.dictionary[codes]
        return values

    def compare(self, matrix: CVIMatrix, col: int, op: str, value: float) -> np.ndarray:
        rows, codes = self._column_entries(matrix, col)
        dictionary_mask = COMPARE_OPS[op](matrix.value_index.dictionary, value)
        zero_holds = bool(COMPARE_OPS[op](0.0, value))
        mask = np.full(matrix.n_rows, zero_holds, dtype=bool)
        mask[rows] = dictionary_mask[codes]
        return mask

    def column_stats(self, matrix: CVIMatrix, col: int, mask: np.ndarray | None):
        rows, codes = self._column_entries(matrix, col)
        kept = matrix.n_rows if mask is None else int(np.count_nonzero(mask))
        if kept == 0:
            return None
        if mask is not None:
            within = mask[rows]
            rows, codes = rows[within], codes[within]
        dictionary = matrix.value_index.dictionary
        stored = dictionary[codes]
        total = float(stored.sum())
        lowest = float(stored.min()) if stored.size else 0.0
        highest = float(stored.max()) if stored.size else 0.0
        if rows.size < kept:  # implicit zeros are part of the column
            lowest, highest = min(lowest, 0.0), max(highest, 0.0)
        return kept, total, lowest, highest

    select_rows = staticmethod(dispatch.row_slice)


class CompressedOpsReader(ScanReader):
    """Push-down for TOC and its ablations: columns straight off the decode tree.

    Columns are Algorithm 4's recurrence run once over a block of keys, each
    column's own keys kept and every other key set to 0
    (:meth:`repro.core.TOCMatrix.columns`), so every column a scan touches
    costs one compressed pass together, never a full decode.  It is not
    ``A @ E``: ``0 * NaN`` and ``0 * inf`` are NaN, and would leak into a
    column's value for every row holding one.  Matched rows are decoded
    directly off their code runs (the row-slice kernel).
    """

    name = "compressed-ops"

    def column(self, matrix: TOCCompressedMatrix, col: int) -> np.ndarray:
        return matrix.toc.column(col)

    def columns(self, matrix: TOCCompressedMatrix, cols: Sequence[int]) -> np.ndarray:
        return matrix.toc.columns(cols)

    select_rows = staticmethod(dispatch.row_slice)


class DenseFallbackReader(ScanReader):
    """The always-correct path: decode once per shard, mask with NumPy."""

    name = "dense-fallback"
    pushdown = False

    def column(self, matrix, col: int) -> np.ndarray:
        raise NotImplementedError  # the context serves columns off its dense block


#: Ordered ``(predicate, reader)`` pairs; first match wins, dense fallback last.
_SCAN_READERS: list[tuple[Callable[[object], bool], ScanReader]] = [
    (lambda m: isinstance(m, DVIMatrix), DVIReader()),
    (lambda m: isinstance(m, CVIMatrix), CVIReader()),
    (lambda m: isinstance(m, TOCCompressedMatrix), CompressedOpsReader()),
]

_DENSE_FALLBACK = DenseFallbackReader()


def register_scan_reader(predicate: Callable[[object], bool], reader: ScanReader) -> None:
    """Register a push-down reader for a new representation."""
    _SCAN_READERS.append((predicate, reader))


def scan_reader_for(matrix, pushdown: bool = True) -> ScanReader:
    """Resolve the scan reader for ``matrix`` (dense fallback when none fits)."""
    if pushdown:
        for predicate, reader in _SCAN_READERS:
            if predicate(matrix):
                return reader
    return _DENSE_FALLBACK


# -- the per-shard execution context -------------------------------------------


class _ShardContext:
    """Binds one shard's matrix to its reader, with every column the scan needs.

    This is what predicate leaves and aggregates evaluate against.  Every
    column the scan touches (``compared`` by the predicate, ``projected``,
    ``aggregated``) is extracted once, up front, in one ``reader.columns``
    call, except where the reader answers without the column: a reader that
    overrides ``compare`` / ``column_stats`` (a dictionary probe) keeps them
    for the columns only the predicate / only an aggregate touches.  The
    dense fallback materialises the block exactly once and serves its
    columns off it.
    """

    def __init__(self, matrix, pushdown=True, compared=(), projected=(), aggregated=()):
        self.matrix = matrix
        self.reader = scan_reader_for(matrix, pushdown)
        self.pushdown = self.reader.pushdown
        self._dense: np.ndarray | None = None
        for col in {*compared, *projected, *aggregated}:
            if not 0 <= col < self.n_cols:
                raise IndexError(f"column {col} out of range [0, {self.n_cols})")
        wanted = {*projected}
        if _derived(self.reader, "compare"):
            wanted.update(compared)
        if _derived(self.reader, "column_stats"):
            wanted.update(aggregated)
        wanted = sorted(wanted)
        self._columns: dict[int, np.ndarray] = {}
        if wanted and self.pushdown:
            self._columns = dict(zip(wanted, self.reader.columns(matrix, wanted).T))
        elif wanted:
            self._columns = {col: self.dense()[:, col] for col in wanted}

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = dispatch.to_dense(self.matrix)
        return self._dense

    def compare(self, col: int, op: str, value: float) -> np.ndarray:
        values = self._columns.get(col)
        if values is None:  # a column only the reader's own probe touches
            return self.reader.compare(self.matrix, col, op, value)
        return COMPARE_OPS[op](values, value)

    def column_stats(self, col: int, mask: np.ndarray | None):
        values = self._columns.get(col)
        if values is None:
            return self.reader.column_stats(self.matrix, col, mask)
        return _stats(values, mask)

    def select(self, local_rows: np.ndarray, columns: Sequence[int] | None) -> np.ndarray:
        """Materialise the selected rows (projected when ``columns`` given).

        Push-down ends at the predicate; materialisation picks whichever is
        cheaper.  A compressed row gather (when the reader has one) wins on
        selective results, but past :data:`SELECT_DENSE_THRESHOLD` of the
        shard one dense decode beats gathering row by row — and a dense
        block that some fallback already built is always reused.
        """
        if columns is not None:
            return np.column_stack([self._columns[col][local_rows] for col in columns])
        selective = local_rows.size <= SELECT_DENSE_THRESHOLD * self.n_rows
        if self.pushdown and self._dense is None and selective:
            sliced = self.reader.select_rows(self.matrix, local_rows)
            if sliced is not None:
                return sliced
        return self.dense()[local_rows]


# -- aggregate accumulation ----------------------------------------------------


@dataclass
class _AggregateState:
    """Cross-shard partials for one aggregate."""

    spec: Aggregate
    count: int = 0
    total: float = 0.0
    minimum: float | None = None
    maximum: float | None = None

    def update(self, context: _ShardContext, mask: np.ndarray | None) -> None:
        if self.spec.column is None:  # plain row count
            self.count += context.n_rows if mask is None else int(np.count_nonzero(mask))
            return
        stats = context.column_stats(self.spec.column, mask)
        if stats is None:
            return
        count, total, lowest, highest = stats
        self.count += count
        self.total += total
        self.minimum = lowest if self.minimum is None else min(self.minimum, lowest)
        self.maximum = highest if self.maximum is None else max(self.maximum, highest)

    def result(self) -> float | int | None:
        op = self.spec.op
        if op == "count":
            return self.count
        if op == "sum":
            return self.total
        if op == "min":
            return self.minimum
        if op == "max":
            return self.maximum
        # mean of zero rows is undefined, like SQL's AVG over no rows
        return self.total / self.count if self.count else None


# -- results -------------------------------------------------------------------


@dataclass
class ScanResult:
    """What one scan produced, plus how it executed.

    Selections fill ``rows`` / ``row_ids``; aggregate scans fill
    ``aggregates``.  ``pushdown_shards`` vs ``fallback_shards`` records how
    many shards were answered on the compressed form — what the benchmark
    gate and the CLI report.
    """

    rows: np.ndarray | None = None
    #: Global row ids of the selected rows (selection scans only).
    row_ids: np.ndarray | None = None
    columns: list[int] | None = None
    aggregates: dict[str, float | int | None] | None = None
    n_rows_scanned: int = 0
    n_rows_matched: int = 0
    shards_scanned: int = 0
    pushdown_shards: int = 0
    fallback_shards: int = 0
    schemes: dict[str, int] = field(default_factory=dict)

    @property
    def is_aggregate(self) -> bool:
        return self.aggregates is not None

    @property
    def selectivity(self) -> float:
        return self.n_rows_matched / self.n_rows_scanned if self.n_rows_scanned else 0.0


def scan_matrix(
    matrix,
    *,
    columns: Sequence[int] | None = None,
    where: Predicate | str | None = None,
    pushdown: bool = True,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Scan one compressed matrix: ``(selected_rows, local_row_ids, pushed)``.

    The single-shard building block, exposed for tests and ad-hoc use;
    multi-shard scans go through :func:`scan_shards`.
    """
    result = _scan_shards(iter([(matrix, 0)]), columns=columns, where=where, pushdown=pushdown)
    return result.rows, result.row_ids, result.pushdown_shards == 1


def scan_shards(
    shard_stream,
    *,
    columns: Sequence[int] | None = None,
    where: Predicate | str | None = None,
    agg=None,
    limit: int | None = None,
    pushdown: bool = True,
) -> ScanResult:
    """Run one scan over a stream of ``(compressed_matrix, row_offset)`` pairs.

    ``shard_stream`` yields each shard's matrix with the global row id of its
    first row (what :meth:`repro.api.Dataset.scan` builds from the manifest
    and the shard files, each read once).  Selections honour ``limit`` with an early
    exit — once enough rows matched, remaining shards are never decoded.
    """
    with obs_trace.span("exec.scan", pushdown=pushdown):
        result = _scan_shards(
            shard_stream,
            columns=columns,
            where=where,
            agg=agg,
            limit=limit,
            pushdown=pushdown,
        )
    obs_metrics.counter("exec.scan.scans").inc()
    obs_metrics.counter("exec.scan.shards_pushdown").inc(result.pushdown_shards)
    obs_metrics.counter("exec.scan.shards_fallback").inc(result.fallback_shards)
    obs_metrics.counter("exec.scan.rows_scanned").inc(result.n_rows_scanned)
    obs_metrics.counter("exec.scan.rows_matched").inc(result.n_rows_matched)
    return result


def _scan_shards(
    shard_stream,
    *,
    columns: Sequence[int] | None = None,
    where: Predicate | str | None = None,
    agg=None,
    limit: int | None = None,
    pushdown: bool = True,
) -> ScanResult:
    predicate = parse_predicate(where) if where is not None else None
    aggregates = parse_aggregates(agg) if agg is not None else None
    if aggregates is not None:
        if columns is not None:
            raise ValueError("pass either columns (selection) or agg (aggregation), not both")
        if limit is not None:
            raise ValueError("limit applies to selections, not aggregates")
    if limit is not None and limit < 1:
        # limit=0 is always a caller bug: it would silently return an empty
        # result where "no limit" (None) was almost certainly meant.
        raise ValueError("limit must be at least 1")
    selected_columns = [int(c) for c in columns] if columns is not None else None
    compared = predicate.columns() if predicate is not None else set()
    aggregated = {spec.column for spec in aggregates or () if spec.column is not None}

    result = ScanResult(columns=selected_columns)
    states = [_AggregateState(spec) for spec in aggregates] if aggregates else None
    collected_rows: list[np.ndarray] = []
    collected_ids: list[np.ndarray] = []
    remaining = limit
    n_cols_seen = 0

    for matrix, row_offset in shard_stream:
        context = _ShardContext(matrix, pushdown, compared, selected_columns or (), aggregated)
        n_cols_seen = context.n_cols
        result.shards_scanned += 1
        result.n_rows_scanned += context.n_rows
        if context.pushdown:
            result.pushdown_shards += 1
        else:
            result.fallback_shards += 1
        scheme = getattr(matrix, "scheme_name", type(matrix).__name__)
        result.schemes[scheme] = result.schemes.get(scheme, 0) + 1

        mask = predicate.evaluate(context) if predicate is not None else None
        if states is not None:
            matched = context.n_rows if mask is None else int(np.count_nonzero(mask))
            result.n_rows_matched += matched
            for state in states:
                state.update(context, mask)
            continue

        if mask is None:
            local_rows = np.arange(context.n_rows, dtype=np.intp)
        else:
            local_rows = np.flatnonzero(mask).astype(np.intp)
        result.n_rows_matched += int(local_rows.size)
        if remaining is not None:
            local_rows = local_rows[:remaining]
        if local_rows.size:
            collected_rows.append(context.select(local_rows, selected_columns))
            collected_ids.append(local_rows + int(row_offset))
        if remaining is not None:
            remaining -= int(local_rows.size)
            if remaining <= 0:
                break

    if states is not None:
        result.aggregates = {state.spec.key: state.result() for state in states}
        return result

    if collected_rows:
        result.rows = np.concatenate(collected_rows, axis=0)
        result.row_ids = np.concatenate(collected_ids)
    else:
        width = len(selected_columns) if selected_columns is not None else n_cols_seen
        result.rows = np.empty((0, width), dtype=np.float64)
        result.row_ids = np.empty(0, dtype=np.intp)
    if limit is not None:
        result.n_rows_matched = min(result.n_rows_matched, limit)
    return result


__all__ = [
    "CVIReader",
    "CompressedOpsReader",
    "DVIReader",
    "DenseFallbackReader",
    "ScanReader",
    "ScanResult",
    "register_scan_reader",
    "scan_matrix",
    "scan_reader_for",
    "scan_shards",
]
