"""Scheme selection from a mini-batch sample.

Section 5.1 of the paper ends with a practical recommendation: "one can
simply test TOC on a mini-batch sample and figure out if TOC is suitable for
the dataset".  This module turns that advice into a utility: compress the
sample with every registered scheme and rank the schemes by measured cost.

Each scheme is scored by ``bytes × expected op mix``
(:meth:`~repro.core.calibration.Calibration.expected_cost`): the kernel
timings measured on this machine, weighted by the ops the ``workload`` runs
(``"train"`` by default), plus an I/O term from the compressed bytes.  The
cheapest scheme wins; ties break deterministically on the scheme name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.registry import available_schemes, get_scheme
from repro.core.calibration import (
    DEFAULT_WORKLOAD,
    Calibration,
    check_workload,
    ensure_calibration,
)


@dataclass(frozen=True)
class SchemeReport:
    """Measured behaviour of one scheme on the sample batch."""

    name: str
    compression_ratio: float
    supports_direct_ops: bool
    #: Expected seconds per matrix element under the requested workload,
    #: from the calibrated cost model.
    measured_cost: float


def _rank_key(report: SchemeReport):
    """Cheapest first, scheme name breaking ties.

    Without the name tie-break the order of equal-cost schemes would depend
    on registry insertion order.
    """
    return (report.measured_cost, report.name)


@dataclass(frozen=True)
class Recommendation:
    """The advisor's output: a ranked list plus the chosen scheme."""

    sample_shape: tuple[int, int]
    reports: tuple[SchemeReport, ...]
    #: The workload the ranking was scored for.
    workload: str

    @property
    def best(self) -> SchemeReport:
        return self.reports[0]

    def ranked_names(self) -> list[str]:
        return [report.name for report in self.reports]


def recommend_scheme(
    sample_batch: np.ndarray,
    schemes: list[str] | None = None,
    *,
    workload: str = DEFAULT_WORKLOAD,
    calibration: Calibration | None = None,
) -> Recommendation:
    """Measure ``schemes`` (default: all registered) on a sample mini-batch.

    Returns a :class:`Recommendation` whose reports are sorted cheapest
    first for ``workload``.  The sample should be a representative
    mini-batch (a few hundred rows); compression behaviour is stable across
    batches drawn from the same data.  ``calibration`` defaults to this
    process's :func:`~repro.core.calibration.ensure_calibration`.

    Compression ratios are computed against the *source* dtype's dense
    footprint: schemes store float64 internally, but a float32 sample's
    baseline is 4 bytes per element, not 8 — the old float64 baseline
    overstated ratios 2x for float32 datasets.
    """
    check_workload(workload)
    source = np.asarray(sample_batch)
    batch = np.asarray(source, dtype=np.float64)
    if batch.ndim != 2 or batch.size == 0:
        raise ValueError("the sample batch must be a non-empty 2-D matrix")
    source_itemsize = source.dtype.itemsize if source.dtype.kind in "biuf" else 8
    dense_bytes = batch.shape[0] * batch.shape[1] * source_itemsize
    sparsity = float(np.mean(batch == 0.0))
    names = list(schemes) if schemes is not None else available_schemes()
    if calibration is None:
        calibration = ensure_calibration(schemes=names)
    reports = []
    for name in names:
        compressed = get_scheme(name).compress(batch)
        reports.append(
            SchemeReport(
                name=name,
                compression_ratio=dense_bytes / max(compressed.nbytes, 1),
                supports_direct_ops=compressed.supports_direct_ops,
                measured_cost=calibration.expected_cost(
                    name,
                    workload=workload,
                    sparsity=sparsity,
                    bytes_per_element=compressed.nbytes / batch.size,
                ),
            )
        )
    reports.sort(key=_rank_key)
    return Recommendation(
        sample_shape=batch.shape, reports=tuple(reports), workload=workload
    )
