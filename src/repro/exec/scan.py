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

Each scheme's matrix class carries its own push-down (``scan_pushdown``,
``columns``, and for the value-indexed schemes ``dictionary_probe``,
``compare`` and ``column_stats``; see :mod:`repro.compression.base`), so
this module names no scheme and keeps no registry: :class:`_ShardContext`
asks the shard's matrix.  :func:`scan_shards` streams a whole
:class:`~repro.engine.shards.Dataset`, each shard read once from its file,
into the per-shard scan, combining selections (with an early-exit
``limit``) or aggregate partials across shards.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

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


def _stats(values: np.ndarray, mask: np.ndarray | None) -> tuple[int, float, float, float] | None:
    """``(count, sum, min, max)`` of ``values`` over the kept rows, ``None`` if none are."""
    if mask is not None:
        values = values[mask]
    if values.size == 0:
        return None
    return values.size, float(values.sum()), float(values.min()), float(values.max())


# -- the per-shard execution context -------------------------------------------


class _ShardContext:
    """One shard's matrix, with every column the scan needs.

    This is what predicate leaves and aggregates evaluate against.  Every
    column the scan touches (``compared`` by the predicate, ``projected``,
    ``aggregated``) is extracted once, up front, in one ``matrix.columns``
    call, except where the matrix answers from its value dictionary
    (``dictionary_probe``): then the columns only the predicate / only an
    aggregate touches go to its ``compare`` / ``column_stats``.  A shard
    that does not push down (or ``pushdown=False``) materialises its dense
    block exactly once and serves its columns off it.
    """

    def __init__(self, matrix, pushdown=True, compared=(), projected=(), aggregated=()):
        self.matrix = matrix
        self.pushdown = pushdown and getattr(matrix, "scan_pushdown", False)
        self._dense: np.ndarray | None = None
        for col in {*compared, *projected, *aggregated}:
            if not 0 <= col < self.n_cols:
                raise IndexError(f"column {col} out of range [0, {self.n_cols})")
        wanted = {*projected}
        if not (self.pushdown and matrix.dictionary_probe):
            wanted.update(compared, aggregated)
        wanted = sorted(wanted)
        self._columns: dict[int, np.ndarray] = {}
        if wanted and self.pushdown:
            self._columns = dict(zip(wanted, matrix.columns(wanted).T))
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
        if values is None:  # a column only the matrix's dictionary probe touches
            return self.matrix.compare(col, COMPARE_OPS[op], value)
        return COMPARE_OPS[op](values, value)

    def column_stats(self, col: int, mask: np.ndarray | None):
        values = self._columns.get(col)
        if values is None:
            return self.matrix.column_stats(col, mask)
        return _stats(values, mask)

    def select(self, local_rows: np.ndarray, columns: Sequence[int] | None) -> np.ndarray:
        """Materialise the selected rows (projected when ``columns`` given).

        Push-down ends at the predicate; materialisation picks whichever is
        cheaper.  A compressed row gather wins on selective results, but
        past :data:`SELECT_DENSE_THRESHOLD` of the shard one dense decode
        beats gathering row by row — and a dense block that some fallback
        already built is always reused.
        """
        if columns is not None:
            return np.column_stack([self._columns[col][local_rows] for col in columns])
        selective = local_rows.size <= SELECT_DENSE_THRESHOLD * self.n_rows
        if self.pushdown and self._dense is None and selective:
            return dispatch.row_slice(self.matrix, local_rows)
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
    "ScanResult",
    "scan_matrix",
    "scan_shards",
]
