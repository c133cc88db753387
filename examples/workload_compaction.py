"""Workload-aware compaction with a measured kernel calibration.

Run with::

    python examples/workload_compaction.py

A scheme's compression ratio is a poor guide to its speed: the paper's
Figure 8 shows kernel costs diverging between schemes.  TOC's ratio wins on
moderately-sparse data, but its ``row_slice`` kernel runs orders of
magnitude slower than the value-indexed schemes', so a serving replica
encoded on ratio alone answers point lookups through the slowest possible
path.

So the advisor measures: a one-time calibration pass times every scheme's
kernels on this machine, persists next to the dataset as
``calibration.json``, and ``workload=`` scores schemes by
``bytes x expected op mix`` — ``"train"`` (the default) weighs the matmat
epoch kernels, ``"serve"`` weighs row_slice lookups, ``"scan"`` weighs
decode+gather.

This example:

1. shards a moderately-sparse dataset with TOC, the scheme with the best
   ratio on it;
2. compacts the same directory for a serving replica with
   ``compact(workload="serve")`` — the calibration is measured (or
   reloaded) automatically and only the shards whose winner changed are
   re-encoded;
3. times point lookups before and after to show the measured pick winning;
4. shows the train-replica pick can differ from the serve-replica pick.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import DATASET_PROFILES, Dataset


def time_lookups(dataset: Dataset, ids: list[int], repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        dataset.take(ids)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    features, labels = DATASET_PROFILES["census"].classification(4_000, seed=0)
    rng = np.random.default_rng(0)
    ids = sorted(rng.choice(features.shape[0], size=64, replace=False).tolist())

    with tempfile.TemporaryDirectory(prefix="repro-workload-") as tmp:
        # 1. Picked on ratio alone: TOC compresses this data best.
        dataset = Dataset.create(
            Path(tmp) / "shards", features, labels, scheme="TOC", batch_size=500
        )
        mix = dataset.stats().scheme_counts
        before = time_lookups(dataset, ids)
        print(f"best-ratio scheme: {mix}, 64 lookups in {before * 1e3:.2f}ms")

        # 2. Re-advise the same directory for serving.  The first advice
        # runs the calibration pass (well under a second) and persists
        # calibration.json next to the manifest; later calls reload it.
        report = dataset.compact(workload="serve")
        print(
            f"compact(workload='serve'): {report.n_reencoded} of "
            f"{report.examined} shards re-encoded -> {dataset.stats().scheme_counts}"
        )
        assert (dataset.path / "calibration.json").exists()

        # 3. The serve-workload pick answers the same lookups faster.
        after = time_lookups(dataset, ids)
        print(f"serve-workload advisor: 64 lookups in {after * 1e3:.2f}ms")

        # 4. A training replica of the same data can legitimately choose a
        # different mix: the epoch kernels (matmat) have different relative
        # costs than point lookups.
        replica = Dataset.create(
            Path(tmp) / "train-replica", features, labels,
            scheme="auto", batch_size=500,
        )
        print(f"train-workload replica: {replica.stats().scheme_counts}")


if __name__ == "__main__":
    main()
