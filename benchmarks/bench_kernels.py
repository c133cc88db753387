"""Kernel benchmarks: TOC row_slice, cold and warm steps, encode, shard reads.

TOC's ``row_slice`` walks only the selected rows' codes through the decode
tree (``repro.core.ops.decode_rows_to_dense``) instead of multiplying by a
selection matrix, and shard reads are owned one-pass reads (``read_file``),
except the feature store's, which maps.  This bench times those paths
against the baselines they replaced and gates on the acceptance thresholds:

* TOC ``row_slice`` on a selective read (<= 10% of rows) must be **>= 3x**
  the old selection-matrix path (``M @ A`` via ``rmatmat``);
* decoding from the zero-copy ``map_file`` view the feature store keeps
  must show **no regression** on a full-shard decode vs decoding a copying
  ``read_bytes`` of the same file (the median ratio of paired rounds);
* on 250-row census TOC shards, a one-pass ``read_file`` + decode must cost
  **no more** than ``map_file`` + decode — the per-shard read the trainer's
  pool, scans and compaction make;
* a *cold* one-row TOC read (parse the payload, rebuild the decode tree
  ``C'``, slice the row) must cost **<= 6x** the same slice on an already
  parsed shard, so the first-vs-warm gap cannot silently reopen;
* a *cold* TOC training step (parse the payload, then the first ``A @ v``
  and ``v @ A``, which rebuild ``C'``) must cost **<= 3.3x** the same step
  on a warm shard: what every epoch pays per shard, since the pool keeps
  bytes.  DEN, CSR, CVI and DVI take the same step, recorded ungated;
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
from time import perf_counter

import numpy as np
import pytest

from repro.api import Dataset
from repro.bench.runner import time_callable, write_bench_json
from repro.compression.registry import get_scheme
from repro.core.decode_tree import build_decode_tree
from repro.core.logical import prefix_tree_encode
from repro.core.physical import physical_decode, physical_encode
from repro.core.sparse import sparse_encode
from repro.data import DATASET_PROFILES
from repro.storage.mmapio import map_file, read_file

#: The selective-read regime the TOC gather targets.
SLICE_ROWS, SLICE_COLS, SLICE_SELECT = 8_000, 60, 400  # 5% of rows
REPEATS = 5

ROW_SLICE_SPEEDUP_FLOOR = 3.0
#: mmap must not regress; allow generous CI jitter either way.
MMAP_REGRESSION_CEILING = 1.5
#: Rounds of one call per side the mmap relation takes the median of: a call
#: decodes four 1 500-row TOC shards whole, ~7 ms on a 2-vCPU x86-64 box.
MMAP_ROUNDS = 100
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
#: Schemes with direct kernels, each timed on the cold training step below
#: (only TOC's is gated; the others, Figure 10's ablations among them, are
#: recorded).
COLD_STEP_SCHEMES = (
    "DEN", "CSR", "CVI", "DVI", "CLA", "TOC_SPARSE", "TOC_SPARSE_AND_LOGICAL", "TOC",
)
#: TOC's cold training step (parse the payload, then the first ``A @ v`` and
#: ``v @ A``, which rebuild ``C'``) over the same step on a warm shard.
#: Measured 3.4-4.0 on a 2-vCPU x86-64 box while the rebuild went through a
#: creation-order tree and then its level-major layout, 2.8-3.2 since the
#: payload goes straight to the level-major tree (15 runs each, unpinned).
COLD_STEP_CEILING = 3.3
#: Rounds of one call per side a gated relation takes the median of
#: (:func:`_paired_secs`); compressing a batch takes milliseconds, so the
#: encode relation takes fewer.
PAIRED_ROUNDS = 400
ENCODE_ROUNDS = 100
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


def _paired_secs(first, second, rounds: int) -> tuple[float, float, float]:
    """Median seconds of one ``first()`` call and of one ``second()`` call, and
    the median per-round ratio.

    Each round times one call of each, back to back, so both sides of a
    round see the same box: sampled 20 calls at a time and in alternation,
    a gated ratio wandered 2.9-3.5 across runs of one tree, as wide as the
    gap its ceiling sits in.
    """
    samples = np.empty((rounds, 2))
    for i in range(rounds):
        began = perf_counter()
        first()
        middle = perf_counter()
        second()
        samples[i] = middle - began, perf_counter() - middle
    first_secs, second_secs = np.median(samples, axis=0).tolist()
    return first_secs, second_secs, float(np.median(samples[:, 0] / samples[:, 1]))


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
    encoding = physical_decode(payload)

    parse_secs = _batched_secs(lambda: scheme.decompress_bytes(payload))
    tree_build_secs = _batched_secs(lambda: build_decode_tree(encoding))

    cold_secs, warm_secs, ratio = _paired_secs(
        lambda: scheme.decompress_bytes(payload).row_slice(index),
        lambda: warm.row_slice(index),
        PAIRED_ROUNDS,
    )
    record = {
        "bench": "kernels",
        "op": "toc_cold_read",
        "n_rows": dense.shape[0],
        "n_cols": dense.shape[1],
        "tree_nodes": len(warm.decode_tree),
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


@pytest.mark.parametrize("scheme_name", COLD_STEP_SCHEMES)
def test_cold_step_relation(bench_json, scheme_name):
    # One training step on a shard the pool hands over as bytes: what every
    # epoch pays per shard, since the pool keeps payloads, not parsed shards.
    scheme = get_scheme(scheme_name)
    dense = DATASET_PROFILES["census"].matrix(COLD_READ_ROWS, seed=11)
    payload = memoryview(scheme.compress(dense).to_bytes())
    rng = np.random.default_rng(13)
    v, u = rng.normal(size=dense.shape[1]), rng.normal(size=dense.shape[0])
    warm = scheme.decompress_bytes(payload)
    # Equivalence before timing; the first calls also warm the shard.
    np.testing.assert_allclose(warm.matvec(v), dense @ v)
    np.testing.assert_allclose(warm.rmatvec(u), u @ dense)

    def cold_step():
        shard = scheme.decompress_bytes(payload)
        shard.matvec(v)
        shard.rmatvec(u)

    def warm_step():
        warm.matvec(v)
        warm.rmatvec(u)

    # Call by call the ratio stays within 2.8-3.2 across runs of one tree.
    cold_secs, warm_secs, ratio = _paired_secs(cold_step, warm_step, PAIRED_ROUNDS)
    record = {
        "bench": "kernels",
        "op": "cold_step",
        "scheme": scheme_name,
        "n_rows": dense.shape[0],
        "n_cols": dense.shape[1],
        "payload_bytes": len(payload),
        "parse_secs": _batched_secs(lambda: scheme.decompress_bytes(payload)),
        "cold_step_secs": cold_secs,
        "warm_step_secs": warm_secs,
        # Direction-neutral, like ``cold_relative_cost``: the ceiling gates TOC's.
        "cold_step_relative_cost": ratio,
    }
    if scheme_name == "TOC":
        encoding = physical_decode(payload)
        record["tree_build_secs"] = _batched_secs(lambda: build_decode_tree(encoding))
        record["tree_nodes"] = len(warm.decode_tree)
    _RECORDS.append(record)
    bench_json("kernels", **_smoke_fields(record))
    build = f" (tree {record['tree_build_secs'] * 1e6:.1f})" if "tree_build_secs" in record else ""
    print(
        f"{scheme_name} cold step {cold_secs * 1e6:7.1f} us (parse "
        f"{record['parse_secs'] * 1e6:.1f}{build}) vs warm {warm_secs * 1e6:7.1f} us  "
        f"(ratio {ratio:.2f})"
    )
    if scheme_name == "TOC":
        assert ratio <= COLD_STEP_CEILING, (
            f"a cold TOC training step costs {ratio:.2f}x a warm one "
            f"(ceiling {COLD_STEP_CEILING}x)"
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

    rmatvec_secs, matvec_secs, vector_ratio = _paired_secs(
        lambda: shard.rmatvec(u), lambda: shard.matvec(v), PAIRED_ROUNDS
    )
    rmatmat_secs, matmat_secs, matrix_ratio = _paired_secs(
        lambda: shard.rmatmat(left), lambda: shard.matmat(m), PAIRED_ROUNDS
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
    logical = prefix_tree_encode(sparse)

    sparse_secs = time_callable(lambda: sparse_encode(dense), REPEATS)
    tree_encode_secs = time_callable(lambda: prefix_tree_encode(sparse), REPEATS)
    physical_secs = time_callable(lambda: physical_encode(logical), REPEATS)

    toc_secs, gzip_secs, ratio = _paired_secs(
        lambda: toc.compress(dense).to_bytes(),
        lambda: gzip.compress(dense).to_bytes(),
        ENCODE_ROUNDS,
    )
    record = {
        "bench": "kernels",
        "op": "toc_encode",
        "n_rows": dense.shape[0],
        "n_cols": dense.shape[1],
        "pairs": sparse.nnz,
        "tree_nodes": logical.n_tree_nodes,
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
    schemes = [get_scheme(s.scheme) for s in dataset.shards]
    assert isinstance(dataset.map_payload(0), memoryview)  # what the feature store keeps

    def decode_all(read):
        return [
            scheme.decompress_bytes(read(path)).to_dense()
            for scheme, path in zip(schemes, paths)
        ]

    decode_all(map_file)  # warms the page cache and the first-call costs
    mmap_secs, bytes_secs, ratio = _paired_secs(
        lambda: decode_all(map_file), lambda: decode_all(Path.read_bytes), MMAP_ROUNDS
    )
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

    def decode_all(read):
        for path in paths:
            scheme.decompress_bytes(read(path))

    read_secs, map_secs, ratio = _paired_secs(
        lambda: decode_all(read_file), lambda: decode_all(map_file), PAIRED_ROUNDS
    )
    read_secs, map_secs = read_secs / len(paths), map_secs / len(paths)
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
