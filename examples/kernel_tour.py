"""A tour of the code-walk kernels and the two ways a shard is read.

Run with::

    python examples/kernel_tour.py

The hot code-walk kernels — varint encode/decode, TOC ``row_slice``, and
value-index gathers — have one runtime implementation: the vectorized NumPy
passes in :mod:`repro.kernels.numpy_backend`, which :mod:`repro.kernels`
exports.  :mod:`repro.kernels.python_backend` keeps the per-element
reference loops with the same semantics; the property tests check the two
agree bit for bit.  A one-pass reader (the trainer's pool, scans, ``take``)
reads a shard into bytes it owns (``read_payload``); the feature store, which
keeps each shard, maps it (``map_payload``).  Either way the reader gets a
read-only ``memoryview``, and every scheme's ``from_bytes`` decodes straight
out of it without copying.

This example:

1. encodes a dataset, parses one TOC shard, and times the Python reference
   ``toc_row_slice`` against the NumPy one on the same arguments;
2. reads that shard both ways, checks each decodes exactly like a copy of
   its bytes, and prints the ``storage.reads`` and ``storage.mmap.*`` obs
   counters.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import DATASET_PROFILES, Dataset
from repro.kernels import numpy_backend, python_backend
from repro.obs import metrics

ROWS = 4_000
SELECT = 50  # a 5% selective read of one 1 000-row shard: what the gather targets


def build_dataset(tmp: Path) -> Dataset:
    features, labels = DATASET_PROFILES["census"].classification(ROWS, seed=5)
    return Dataset.create(
        tmp / "shards", features, labels,
        scheme="TOC", batch_size=1_000, workers=1,
    )


def median_seconds(func, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def show_row_slice(dataset: Dataset) -> None:
    toc = dataset.decode(0).toc
    encoding, tree = toc.logical, toc.decode_tree
    rows = np.random.default_rng(0).choice(encoding.n_rows, size=SELECT, replace=False)
    args = (
        encoding.codes, encoding.row_offsets,
        tree.key_columns, tree.key_values, tree.parents,
        rows.astype(np.intp), encoding.n_cols,
    )
    reference = python_backend.toc_row_slice(*args)
    assert np.array_equal(numpy_backend.toc_row_slice(*args), reference)
    python_secs = median_seconds(lambda: python_backend.toc_row_slice(*args))
    numpy_secs = median_seconds(lambda: numpy_backend.toc_row_slice(*args))
    print(f"toc_row_slice, {SELECT} of {encoding.n_rows} rows, same arguments:")
    print(f"  python reference {python_secs * 1e6:9.1f} µs")
    print(f"  numpy            {numpy_secs * 1e6:9.1f} µs  "
          f"({python_secs / numpy_secs:5.1f}x, bit-identical output)")


def show_shard_reads(dataset: Dataset) -> None:
    copied = dataset.decode(0, payload=bytes(dataset.read_payload(0))).to_dense()
    for name, payload in (
        ("read_payload", dataset.read_payload(0)),
        ("map_payload", dataset.map_payload(0)),
    ):
        print(f"\n{name}(0): {type(payload).__name__} of {len(payload):,} bytes over "
              f"{type(payload.obj).__name__}")
        decoded = dataset.decode(0, payload=payload).to_dense()
        assert decoded.tobytes() == copied.tobytes()
        print(f"decoding straight from it: shard 0 -> {decoded.shape}, "
              "bit-equal to decoding a copy")
    counters = metrics.snapshot()["counters"]
    for name in ("storage.reads", "storage.bytes_read",
                 "storage.mmap.maps", "storage.mmap.bytes_mapped"):
        print(f"  {name:<28} {counters.get(name, 0):,}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-kernel-tour-") as tmp:
        dataset = build_dataset(Path(tmp))
        show_row_slice(dataset)
        show_shard_reads(dataset)


if __name__ == "__main__":
    main()
