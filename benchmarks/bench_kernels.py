"""Native-speed kernel benchmarks: varint codec, TOC row_slice, shard reads.

PR-9 replaced the per-element code-walk loops with vectorized NumPy kernels
(:mod:`repro.kernels`) and made shard reads zero-copy (mmap-backed
memoryviews); one-pass readers have since moved to owned reads
(``read_file``), and only the feature store maps.  This bench times the new
paths against the baselines they replaced and gates on the acceptance
thresholds:

* batched varint decode must be **>= 5x** the pure-Python reference;
* TOC ``row_slice`` on a selective read (<= 10% of rows) must be **>= 3x**
  the old selection-matrix path (``M @ A`` via ``rmatmat``);
* decoding from the zero-copy ``map_file`` view the feature store keeps
  must show **no regression** on a full-shard decode vs decoding a copying
  ``read_bytes`` of the same file;
* on 250-row census TOC shards, a one-pass ``read_file`` + decode must cost
  **no more** than ``map_file`` + decode — the per-shard read the trainer's
  pool, scans and compaction make;
* a *cold* one-row TOC read (parse the payload, rebuild the decode tree
  ``C'``, slice the row) must cost **<= 6x** the same slice on an already
  parsed shard, so the first-vs-warm gap cannot silently reopen;
* compressing a batch with TOC (sparse encode, Algorithm 1, physical
  encode, serialise) must cost **no more than Gzip** on the same batch —
  the relation the paper's Figure 12 reports;
* on one parsed shard with its tree warm, each left multiplication must
  cost about what its right twin costs — ``v @ A`` **<= 1.5x** ``A @ v``
  and ``M @ A`` **<= 2.5x** ``A @ M`` — since Algorithms 5 and 8 are one
  scan of ``D`` and one of ``C'``, like Algorithms 4 and 7.

Results land in ``BENCH_kernels.json``, which CI keeps as an artifact: raw
timings as ``*_secs``, each gated ratio as ``*_speedup``.  The assertions in
this file are the gates; no run is compared against an earlier one.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.api import Dataset
from repro.bench.runner import time_callable, write_bench_json
from repro.compression.registry import get_scheme
from repro.core.decode_tree import build_decode_tree
from repro.core.logical import prefix_tree_encode
from repro.core.physical import physical_encode
from repro.core.sparse import sparse_encode
from repro.data import DATASET_PROFILES
from repro.kernels import numpy_backend, python_backend
from repro.storage.mmapio import map_file, read_file

#: Code-stream sized like a large shard's varint segment.
N_VARINTS = 500_000
#: The selective-read regime the TOC gather targets.
SLICE_ROWS, SLICE_COLS, SLICE_SELECT = 8_000, 60, 400  # 5% of rows
REPEATS = 5

DECODE_SPEEDUP_FLOOR = 5.0
ROW_SLICE_SPEEDUP_FLOOR = 3.0
#: mmap must not regress; allow generous CI jitter either way.
MMAP_REGRESSION_CEILING = 1.5
#: One serving shard: the 250-row, 68-column census batches ``bench/`` stores.
COLD_READ_ROWS = 250
#: ``read_file`` + decode over ``map_file`` + decode of such shards.  Measured
#: 0.77-0.90 on a 2-vCPU x86-64 box (69-109 us against 87-139 us per shard):
#: a mapping of a ~6 KB file costs more to set up and tear down than one
#: ``read`` of it.
ONE_PASS_READ_CEILING = 1.0
#: Shards of that size the one-pass read relation cycles through.
ONE_PASS_SHARDS = 8
#: Cold over warm one-row read.  Measured 13-15 while the tree rebuild made
#: one pass per tree level, 4.1-4.6 since it became one doubling pass.
COLD_READ_CEILING = 6.0
#: TOC compress over Gzip compress of one such batch (Figure 12: TOC is the
#: cheaper of the two).  Measured 1.25-1.36 (11-12 ms vs ~9 ms) while Algorithm
#: 1 made one tree call per pair, 0.3-0.4 since it runs over integer symbols.
ENCODE_CEILING = 1.0

#: ``v @ A`` over ``A @ v``, and ``M @ A`` over ``A @ M``, on one such batch
#: with the tree warm.  Measured 1.6 and 2.8-4.1 (by box) while the left
#: products scattered with ``np.add.at`` and a sort per tree level; 1.2-1.4
#: and 1.5-1.9 on the level-major layout.
VECTOR_LEFT_RIGHT_CEILING = 1.5
MATRIX_LEFT_RIGHT_CEILING = 2.5
#: Width of ``M``, as in ``bench/layers.py``'s ``exec.matmat_us`` rung.
MATRIX_WIDTH = 16

#: Iterations per timing sample for sub-millisecond ops: a lone ~150 µs
#: gather is dominated by scheduler jitter, which made the measured speedup
#: swing ~3x between runs.
INNER_LOOPS = 20

#: Rows for ``BENCH_kernels.json``, written once when the module finishes.
_RECORDS: list[dict] = []


def _batched_secs(func, repeats: int = REPEATS) -> float:
    """Median seconds of one ``func()`` call, sampled ``INNER_LOOPS`` calls at a time."""

    def loop():
        for _ in range(INNER_LOOPS):
            func()

    return time_callable(loop, repeats) / INNER_LOOPS


def _alternating_secs(first, second, sample) -> tuple[float, float, float]:
    """Median ``sample(first)``, median ``sample(second)``, median per-round ratio.

    A gated pair is sampled in alternation and compared round by round: the
    box's speed drifts by more between two back-to-back medians than the
    margin under either ceiling.
    """
    rounds = [(sample(first), sample(second)) for _ in range(2 * REPEATS)]
    first_secs, second_secs = np.median(rounds, axis=0).tolist()
    return first_secs, second_secs, float(np.median([a / b for a, b in rounds]))


def _smoke_fields(record: dict) -> dict:
    """The cross-run-gated subset of a record (no ``bench``, no raw timings)."""
    return {
        k: v for k, v in record.items() if k != "bench" and not k.endswith("_secs")
    }


@pytest.fixture(scope="module", autouse=True)
def _write_kernel_bench_file():
    yield
    if _RECORDS:
        path = write_bench_json("kernels", _RECORDS)
        print(f"\nwrote kernel comparison to {path}")


def _mixed_magnitude_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Varint widths 1-9 bytes, weighted toward the small codes TOC emits."""
    widths = rng.choice([7, 14, 21, 35, 56, 63], size=n, p=(0.5, 0.25, 0.1, 0.08, 0.05, 0.02))
    return (rng.random(n) * (2.0 ** (widths - 1))).astype(np.int64)


def test_varint_batch_codec_speedup(bench_json):
    rng = np.random.default_rng(9)
    values = _mixed_magnitude_values(rng, N_VARINTS)
    raw = python_backend.varint_encode(values)
    assert numpy_backend.varint_encode(values) == raw  # equivalence before timing

    python_decode_secs = time_callable(lambda: python_backend.varint_decode(raw), REPEATS)
    numpy_decode_secs = time_callable(lambda: numpy_backend.varint_decode(raw), REPEATS)
    python_encode_secs = time_callable(lambda: python_backend.varint_encode(values), REPEATS)
    numpy_encode_secs = time_callable(lambda: numpy_backend.varint_encode(values), REPEATS)

    decode_speedup = python_decode_secs / numpy_decode_secs
    encode_speedup = python_encode_secs / numpy_encode_secs
    record = {
        "bench": "kernels",
        "op": "varint",
        "n_values": N_VARINTS,
        "stream_bytes": len(raw),
        "python_decode_secs": python_decode_secs,
        "numpy_decode_secs": numpy_decode_secs,
        "python_encode_secs": python_encode_secs,
        "numpy_encode_secs": numpy_encode_secs,
        "decode_speedup": decode_speedup,
        "encode_speedup": encode_speedup,
    }
    _RECORDS.append(record)
    bench_json("kernels", **_smoke_fields(record))
    print(
        f"varint decode {python_decode_secs * 1e3:8.2f} ms -> "
        f"{numpy_decode_secs * 1e3:8.2f} ms  ({decode_speedup:.1f}x), "
        f"encode {encode_speedup:.1f}x"
    )
    assert decode_speedup >= DECODE_SPEEDUP_FLOOR, (
        f"batched varint decode only {decode_speedup:.1f}x the python reference "
        f"(floor {DECODE_SPEEDUP_FLOOR}x)"
    )


def _selection_matrix_slice(compressed, index: np.ndarray) -> np.ndarray:
    """The pre-PR-9 generic row_slice: a selection ``M @ A`` via rmatmat."""
    selection = np.zeros((index.size, compressed.n_rows), dtype=np.float64)
    selection[np.arange(index.size), index] = 1.0
    return compressed.rmatmat(selection)


def test_toc_row_slice_speedup(bench_json):
    rng = np.random.default_rng(10)
    dense = np.round(rng.random((SLICE_ROWS, SLICE_COLS)), 1)
    dense[rng.random((SLICE_ROWS, SLICE_COLS)) >= 0.3] = 0.0
    compressed = get_scheme("TOC").compress(dense)
    index = rng.choice(SLICE_ROWS, size=SLICE_SELECT, replace=False)

    direct = compressed.row_slice(index)
    np.testing.assert_allclose(direct, dense[index])  # equivalence before timing
    np.testing.assert_allclose(_selection_matrix_slice(compressed, index), dense[index])

    direct_secs = _batched_secs(lambda: compressed.row_slice(index))
    selection_secs = time_callable(
        lambda: _selection_matrix_slice(compressed, index), REPEATS
    )
    speedup = selection_secs / direct_secs
    record = {
        "bench": "kernels",
        "op": "toc_row_slice",
        "n_rows": SLICE_ROWS,
        "n_cols": SLICE_COLS,
        "n_selected": SLICE_SELECT,
        "selectivity": SLICE_SELECT / SLICE_ROWS,
        "selection_matrix_secs": selection_secs,
        "direct_gather_secs": direct_secs,
        "row_slice_speedup": speedup,
    }
    _RECORDS.append(record)
    bench_json("kernels", **_smoke_fields(record))
    print(
        f"row_slice ({SLICE_SELECT}/{SLICE_ROWS} rows) selection "
        f"{selection_secs * 1e3:8.2f} ms -> gather {direct_secs * 1e3:8.2f} ms  "
        f"({speedup:.1f}x)"
    )
    assert speedup >= ROW_SLICE_SPEEDUP_FLOOR, (
        f"direct row gather only {speedup:.1f}x the selection-matrix path "
        f"(floor {ROW_SLICE_SPEEDUP_FLOOR}x)"
    )


def test_toc_cold_read_stays_near_warm(bench_json):
    scheme = get_scheme("TOC")
    dense = DATASET_PROFILES["census"].matrix(COLD_READ_ROWS, seed=11)
    payload = memoryview(scheme.compress(dense).to_bytes())
    index = np.array([17])
    warm = scheme.decompress_bytes(payload)
    np.testing.assert_array_equal(warm.row_slice(index), dense[index])  # also warms it
    logical = warm.toc.logical

    parse_secs = _batched_secs(lambda: scheme.decompress_bytes(payload))
    tree_build_secs = _batched_secs(lambda: build_decode_tree(logical))

    cold_secs, warm_secs, ratio = _alternating_secs(
        lambda: scheme.decompress_bytes(payload).row_slice(index),
        lambda: warm.row_slice(index),
        lambda func: _batched_secs(func, repeats=1),
    )
    record = {
        "bench": "kernels",
        "op": "toc_cold_read",
        "n_rows": dense.shape[0],
        "n_cols": dense.shape[1],
        "tree_nodes": len(warm.toc.decode_tree),
        "parse_secs": parse_secs,
        "tree_build_secs": tree_build_secs,
        "cold_row_slice_secs": cold_secs,
        "warm_row_slice_secs": warm_secs,
        # Direction-neutral like ``mmap_relative_cost``: the ceiling below is
        # the gate, a cross-run delta of a ratio of two timings is not.
        "cold_relative_cost": ratio,
    }
    _RECORDS.append(record)
    bench_json("kernels", **_smoke_fields(record))
    print(
        f"cold TOC read {cold_secs * 1e6:7.1f} us (parse {parse_secs * 1e6:.1f} + "
        f"tree {tree_build_secs * 1e6:.1f}) vs warm {warm_secs * 1e6:7.1f} us  "
        f"(ratio {ratio:.1f})"
    )
    assert ratio <= COLD_READ_CEILING, (
        f"a cold one-row TOC read costs {ratio:.1f}x a warm one "
        f"(ceiling {COLD_READ_CEILING}x)"
    )


def test_toc_left_products_cost_what_right_products_cost(bench_json):
    scheme = get_scheme("TOC")
    dense = DATASET_PROFILES["census"].matrix(COLD_READ_ROWS, seed=11)
    shard = scheme.decompress_bytes(memoryview(scheme.compress(dense).to_bytes()))
    rng = np.random.default_rng(12)
    rows, cols = dense.shape
    v, u = rng.normal(size=cols), rng.normal(size=rows)
    m, left = rng.normal(size=(cols, MATRIX_WIDTH)), rng.normal(size=(MATRIX_WIDTH, rows))
    # Equivalence before timing; the first calls also build what the tree caches.
    np.testing.assert_allclose(shard.matvec(v), dense @ v)
    np.testing.assert_allclose(shard.rmatvec(u), u @ dense)
    np.testing.assert_allclose(shard.matmat(m), dense @ m)
    np.testing.assert_allclose(shard.rmatmat(left), left @ dense)

    def sample(func):
        return _batched_secs(func, repeats=1)

    rmatvec_secs, matvec_secs, vector_ratio = _alternating_secs(
        lambda: shard.rmatvec(u), lambda: shard.matvec(v), sample
    )
    rmatmat_secs, matmat_secs, matrix_ratio = _alternating_secs(
        lambda: shard.rmatmat(left), lambda: shard.matmat(m), sample
    )
    record = {
        "bench": "kernels",
        "op": "toc_left_right",
        "n_rows": rows,
        "n_cols": cols,
        "matrix_width": MATRIX_WIDTH,
        "matvec_secs": matvec_secs,
        "rmatvec_secs": rmatvec_secs,
        "matmat_secs": matmat_secs,
        "rmatmat_secs": rmatmat_secs,
        # Direction-neutral, like ``cold_relative_cost``: the ceilings gate them.
        "vector_left_relative_cost": vector_ratio,
        "matrix_left_relative_cost": matrix_ratio,
    }
    _RECORDS.append(record)
    bench_json("kernels", **_smoke_fields(record))
    print(
        f"A@v {matvec_secs * 1e6:6.1f} us, v@A {rmatvec_secs * 1e6:6.1f} us (ratio "
        f"{vector_ratio:.2f}); A@M {matmat_secs * 1e6:6.1f} us, M@A "
        f"{rmatmat_secs * 1e6:6.1f} us (ratio {matrix_ratio:.2f})"
    )
    assert vector_ratio <= VECTOR_LEFT_RIGHT_CEILING, (
        f"v @ A costs {vector_ratio:.2f}x A @ v on a warm TOC shard "
        f"(ceiling {VECTOR_LEFT_RIGHT_CEILING}x)"
    )
    assert matrix_ratio <= MATRIX_LEFT_RIGHT_CEILING, (
        f"M @ A costs {matrix_ratio:.2f}x A @ M on a warm TOC shard "
        f"(ceiling {MATRIX_LEFT_RIGHT_CEILING}x)"
    )


def test_toc_encode_no_slower_than_gzip(bench_json):
    toc, gzip = get_scheme("TOC"), get_scheme("Gzip")
    dense = DATASET_PROFILES["census"].matrix(COLD_READ_ROWS, seed=11)
    sparse = sparse_encode(dense)
    logical, tree = prefix_tree_encode(sparse)

    sparse_secs = time_callable(lambda: sparse_encode(dense), REPEATS)
    tree_encode_secs = time_callable(lambda: prefix_tree_encode(sparse), REPEATS)
    physical_secs = time_callable(lambda: physical_encode(logical), REPEATS)

    toc_secs, gzip_secs, ratio = _alternating_secs(
        lambda: toc.compress(dense).to_bytes(),
        lambda: gzip.compress(dense).to_bytes(),
        lambda func: time_callable(func, 3),
    )
    record = {
        "bench": "kernels",
        "op": "toc_encode",
        "n_rows": dense.shape[0],
        "n_cols": dense.shape[1],
        "pairs": sparse.nnz,
        "tree_nodes": len(tree),
        "sparse_encode_secs": sparse_secs,
        "prefix_tree_encode_secs": tree_encode_secs,
        "physical_encode_secs": physical_secs,
        "toc_encode_secs": toc_secs,
        "gzip_compress_secs": gzip_secs,
        # Direction-neutral, like ``cold_relative_cost``: the ceiling gates it.
        "encode_relative_cost": ratio,
    }
    _RECORDS.append(record)
    bench_json("kernels", **_smoke_fields(record))
    print(
        f"TOC encode {toc_secs * 1e3:6.2f} ms (sparse {sparse_secs * 1e3:.2f} + "
        f"Algorithm 1 {tree_encode_secs * 1e3:.2f} + physical {physical_secs * 1e3:.2f}) "
        f"vs Gzip {gzip_secs * 1e3:6.2f} ms  (ratio {ratio:.2f})"
    )
    assert ratio <= ENCODE_CEILING, (
        f"compressing a batch with TOC costs {ratio:.2f}x Gzip "
        f"(ceiling {ENCODE_CEILING}x)"
    )


def test_mmap_full_shard_decode_no_regression(bench_json, tmp_path_factory):
    rng = np.random.default_rng(11)
    features = np.round(rng.random((6_000, 40)) * (rng.random((6_000, 40)) < 0.4), 1)
    labels = rng.integers(0, 2, size=6_000).astype(np.float64)
    dataset = Dataset.create(
        tmp_path_factory.mktemp("mmap-bench") / "shards",
        features,
        labels,
        scheme="TOC",
        batch_size=1_500,
        shuffle=False,
        workers=1,
    )
    paths = [dataset.path / s.filename for s in dataset.shards]
    schemes = [dataset.scheme_for(s.batch_id) for s in dataset.shards]
    assert isinstance(dataset.map_payload(0), memoryview)  # what the feature store keeps

    def decode_all(read):
        return [
            scheme.decompress_bytes(read(path)).to_dense()
            for scheme, path in zip(schemes, paths)
        ]

    mmap_secs = time_callable(lambda: decode_all(map_file), REPEATS)
    bytes_secs = time_callable(lambda: decode_all(Path.read_bytes), REPEATS)

    ratio = mmap_secs / bytes_secs
    record = {
        "bench": "kernels",
        "op": "mmap_full_decode",
        "n_shards": len(dataset.shards),
        "payload_bytes": dataset.total_payload_bytes(),
        "mmap_decode_secs": mmap_secs,
        "copy_decode_secs": bytes_secs,
        # Direction-neutral on purpose: ~1.0 plus CI jitter, so a 20%
        # cross-run delta means nothing; the ceiling assert below gates it.
        "mmap_relative_cost": ratio,
    }
    _RECORDS.append(record)
    bench_json("kernels", **_smoke_fields(record))
    print(
        f"full-shard decode mmap {mmap_secs * 1e3:8.2f} ms vs bytes "
        f"{bytes_secs * 1e3:8.2f} ms  (ratio {ratio:.2f})"
    )
    assert ratio <= MMAP_REGRESSION_CEILING, (
        f"mmap full-shard decode regressed {ratio:.2f}x vs copying reads "
        f"(ceiling {MMAP_REGRESSION_CEILING}x)"
    )


def test_one_pass_read_no_slower_than_a_mapping(bench_json, tmp_path_factory):
    x, y = DATASET_PROFILES["census"].classification(
        ONE_PASS_SHARDS * COLD_READ_ROWS, seed=11
    )
    dataset = Dataset.create(
        tmp_path_factory.mktemp("one-pass-bench") / "shards",
        x,
        y,
        scheme="TOC",
        batch_size=COLD_READ_ROWS,
        shuffle=False,
        workers=1,
    )
    scheme = get_scheme("TOC")
    paths = [dataset.path / s.filename for s in dataset.shards]
    for path in paths:  # equivalence before timing; also warms the page cache
        assert scheme.decompress_bytes(read_file(path)).to_dense().tobytes() == (
            scheme.decompress_bytes(map_file(path)).to_dense().tobytes()
        )

    def per_shard(read):
        def decode_all():
            for path in paths:
                scheme.decompress_bytes(read(path))

        return _batched_secs(decode_all, repeats=1) / len(paths)

    read_secs, map_secs, ratio = _alternating_secs(read_file, map_file, per_shard)
    record = {
        "bench": "kernels",
        "op": "one_pass_read",
        "n_shards": len(paths),
        "shard_rows": COLD_READ_ROWS,
        "mean_shard_bytes": dataset.total_payload_bytes() / len(paths),
        "read_decode_secs": read_secs,
        "map_decode_secs": map_secs,
        # Direction-neutral, like ``mmap_relative_cost``: the ceiling gates it.
        "read_relative_cost": ratio,
    }
    _RECORDS.append(record)
    bench_json("kernels", **_smoke_fields(record))
    print(
        f"one shard read+decode {read_secs * 1e6:6.1f} us vs map+decode "
        f"{map_secs * 1e6:6.1f} us  (ratio {ratio:.2f})"
    )
    assert ratio <= ONE_PASS_READ_CEILING, (
        f"read_file + decode costs {ratio:.2f}x map_file + decode on a "
        f"{COLD_READ_ROWS}-row TOC shard (ceiling {ONE_PASS_READ_CEILING}x)"
    )


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-disable"]))
