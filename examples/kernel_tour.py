"""A tour of the row-slice kernel and the two ways a shard is read.

Run with::

    python examples/kernel_tour.py

Every scheme's kernels are methods of its matrix class; a TOC shard (a
:class:`repro.TOCMatrix`) answers ``row_slice`` by walking only the
selected rows' codes up its decode tree ``C'``
(``repro.core.ops.decode_rows_to_dense``), where the generic path would
multiply by a selection matrix (``M @ A``, one row of ``M`` per requested
row).  A one-pass reader (the trainer's pool, scans, ``take``) reads a shard
into bytes it owns (``read_payload``); the feature store, which keeps each
shard, maps it (``map_payload``).  Either way the reader gets a read-only
``memoryview``, and every scheme's ``decompress_bytes`` (a classmethod of
its matrix class) decodes straight out of it without copying.

This example:

1. encodes a dataset, parses one TOC shard, and times its direct
   ``row_slice`` gather against the selection-matrix product ``M @ A`` on
   the same rows, checking both against each other bit for bit;
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
    shard = dataset.decode(0)
    rows = np.random.default_rng(0).choice(shard.n_rows, size=SELECT, replace=False)
    selection = np.zeros((SELECT, shard.n_rows))
    selection[np.arange(SELECT), rows] = 1.0
    direct = shard.row_slice(rows)  # also builds C', which both paths then share
    assert np.array_equal(selection @ shard, direct)
    direct_secs = median_seconds(lambda: shard.row_slice(rows))
    selection_secs = median_seconds(lambda: selection @ shard)
    print(f"TOC row_slice, {SELECT} of {shard.n_rows} rows:")
    print(f"  selection matrix M @ A {selection_secs * 1e6:9.1f} µs")
    print(f"  direct gather          {direct_secs * 1e6:9.1f} µs  "
          f"({selection_secs / direct_secs:5.1f}x, bit-identical output)")


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
