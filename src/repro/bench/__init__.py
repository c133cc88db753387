"""Benchmark harness shared by the scripts under ``benchmarks/``.

One driver function per table/figure of the paper's evaluation lives in
:mod:`repro.bench.experiments`; the pytest-benchmark scripts are thin
wrappers that call these drivers and print the same rows/series the paper
reports, so every experiment can also be run directly::

    python -m repro.bench.experiments fig5
"""

from repro.bench.reporting import format_series, format_table
from repro.bench.runner import measure_compression, time_callable
from repro.bench.workloads import minibatch_for

__all__ = [
    "format_series",
    "format_table",
    "measure_compression",
    "minibatch_for",
    "time_callable",
]
