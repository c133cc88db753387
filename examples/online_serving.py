"""Train out-of-core, checkpoint, then serve online traffic — end to end.

Run with::

    python examples/online_serving.py

The paper's trick — amortize decompression and linear algebra over a
mini-batch — pays twice.  Training exploits it in the MGD loop; this example
shows the serving side, entirely through the facade: ``Estimator.fit`` with
a ``shard_dir`` trains out-of-core, ``Estimator.save`` publishes the model
to a version registry, and ``open_service`` turns the registry into a live
service that coalesces concurrent single-row requests into mini-batches
over the same compressed shard files.  Stored rows are answered out of a
score array: each shard is scored once in the compressed domain, and its
rows are answered from the scores.  The closing table compares the
workload's rows sent as raw feature vectors, unbatched (batch size 1) and
micro-batched — every such request runs the model — with the same rows
asked for by id.
"""

from __future__ import annotations

import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.api import DATASET_PROFILES, Estimator, PredictionService, open_service

ROWS = 2000
BATCH_SIZE = 250
REQUESTS = 1500
CLIENTS = 8


def drive(service: PredictionService, workload: np.ndarray, by_id: bool) -> float:
    """Issue the workload from concurrent clients; return wall seconds."""
    if by_id:
        call, requests = service.predict_id, workload
    else:
        call, requests = service.predict_vector, service.store.get_rows(workload)
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENTS) as clients:
        list(clients.map(call, requests))
    return time.perf_counter() - start


def main() -> None:
    features, labels = DATASET_PROFILES["census"].classification(ROWS, seed=3)

    with tempfile.TemporaryDirectory(prefix="repro-serving-") as tmp:
        shard_dir = Path(tmp) / "shards"
        registry_dir = Path(tmp) / "checkpoints"

        # 1. Train out-of-core and publish the model to the registry.  The
        #    checkpoint records the shard directory, so serving finds the
        #    features again without being told.
        estimator = Estimator(
            "logreg", scheme="TOC", batch_size=BATCH_SIZE, epochs=3,
            learning_rate=0.3, budget_ratio=2.0,
        )
        report = estimator.fit(features, labels, shard_dir=shard_dir)
        version, _ = estimator.save(registry_dir)
        print(
            f"trained over {ROWS} rows (final loss {report.final_loss:.4f}), "
            f"published checkpoint v{version:05d}"
        )

        # 2. An 80/20 workload: most requests hit a small hot set.
        rng = np.random.default_rng(0)
        hot = rng.choice(ROWS, size=ROWS // 5, replace=False)
        workload = np.where(
            rng.random(REQUESTS) < 0.8,
            rng.choice(hot, size=REQUESTS),
            rng.integers(0, ROWS, size=REQUESTS),
        )

        # 3. Serve the same traffic through three backends.
        print(f"\n{REQUESTS} requests from {CLIENTS} clients:\n")
        print(f"{'backend':<14} {'req/s':>9} {'model calls':>12} "
              f"{'mean batch':>11} {'cache hits':>11}")
        for label, max_batch_size, by_id in (
            ("unbatched", 1, False),
            ("micro-batched", 64, False),
            ("row ids", 64, True),
        ):
            service, _ = open_service(registry_dir, max_batch_size=max_batch_size)
            with service:
                wall = drive(service, workload, by_id)
                print(
                    f"{label:<14} {REQUESTS / wall:>9,.0f} "
                    f"{service.batcher_stats.batches:>12} "
                    f"{service.batcher_stats.mean_batch_size:>11.1f} "
                    f"{service.stats.snapshot().cache_hits:>11}"
                )

    print("\nCoalescing concurrent requests into mini-batches amortizes the model call")
    print("over many rows — the same effect the MGD training loop uses — and the score")
    print("array scores each shard once, compressed, then answers its rows from the scores.")
    print("Try `python -m repro serve --help` for the CLI version with knobs.")


if __name__ == "__main__":
    main()
