"""Scale-out serving: the asyncio facade and the multi-process cluster tier.

Run with::

    python examples/async_serving.py

Two layers sit above the micro-batched ``PredictionService``:

* :class:`~repro.api.AsyncPredictionService` — ``await service.predict(i)``
  from an event loop.  Requests bridge into the batcher via futures, so the
  loop never blocks on a decode; the service's queue bound (``max_queue``)
  and each call's ``deadline`` turn overload into *explicit, immediate*
  errors instead of unbounded waiting;
* :class:`~repro.api.ClusterService` — N worker processes, each with its
  own buffer pool, feature store, and checkpoint, behind one dispatcher.
  Per-worker queues are bounded (``backlog``), crashed workers respawn,
  and after ``Dataset.compact`` swaps the shards workers hot-reopen
  without dropping in-flight requests.

The demo trains a small model, serves it through the asyncio facade, then
deliberately overloads a tiny one-worker cluster to show load shedding:
every refused request fails fast with ``ServiceOverloaded`` — no caller
ever hangs.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import (
    DATASET_PROFILES,
    AsyncPredictionService,
    ClusterService,
    DeadlineExceeded,
    Estimator,
    ServiceOverloaded,
    open_service,
)

ROWS = 1200
REQUESTS = 400


async def serve_async(registry_dir: Path) -> None:
    """The asyncio surface: concurrent awaits coalesce into mini-batches."""
    service, checkpoint = open_service(registry_dir)
    async with AsyncPredictionService(service) as aps:
        rng = np.random.default_rng(0)
        ids = rng.integers(0, ROWS, size=REQUESTS)
        start = time.perf_counter()
        values = await asyncio.gather(*(aps.predict(int(i)) for i in ids))
        wall = time.perf_counter() - start
        stats = service.batcher_stats
        print(
            f"asyncio facade: {len(values)} awaited predictions in {wall:.3f}s "
            f"({len(values) / wall:,.0f} req/s) over model "
            f"v{checkpoint.version:05d}"
        )
        print(
            f"  micro-batching underneath: {stats.batches} model calls, "
            f"mean batch {stats.mean_batch_size:.1f}"
        )

        # Deadlines turn slow answers into explicit errors, not hangs (a
        # feature vector is never answered from the score array, so this one
        # always queues).
        try:
            await aps.predict_vector(service.store.get_row(0), deadline=1e-9)
        except DeadlineExceeded:
            print("  a 1ns deadline fails explicitly: DeadlineExceeded")


def shed_load(registry_dir: Path, shard_dir: Path) -> None:
    """Overload a deliberately tiny cluster and watch it shed, not queue."""
    with ClusterService(
        registry_dir,
        shard_dir=shard_dir,
        workers=1,
        backlog=2,
        admission="reject",
    ) as cluster:
        cluster.predict_many(range(8))  # warm the worker
        from concurrent.futures import ThreadPoolExecutor

        def client(row_id: int) -> bool:
            try:
                cluster.predict(row_id)
            except ServiceOverloaded:
                return False
            return True

        with ThreadPoolExecutor(max_workers=16) as clients:
            outcomes = list(clients.map(client, range(REQUESTS)))
        answered = sum(outcomes)
        shed = len(outcomes) - answered
        print(
            f"\nload shedding: 16 clients against 1 worker x backlog 2 — "
            f"{answered} answered, {shed} shed"
        )
        print(
            "  every shed request failed fast with ServiceOverloaded; "
            "nothing queued unboundedly, nobody hung"
        )
        depth = cluster.metrics()["gauges"].get(
            "cluster.worker.queue_depth{worker=0}", 0
        )
        print(f"  final worker queue depth: {depth:.0f}")


def main() -> None:
    features, labels = DATASET_PROFILES["census"].classification(ROWS, seed=3)
    with tempfile.TemporaryDirectory(prefix="repro-async-serving-") as tmp:
        shard_dir = Path(tmp) / "shards"
        registry_dir = Path(tmp) / "checkpoints"
        estimator = Estimator(
            "logreg", scheme="TOC", batch_size=200, epochs=2, learning_rate=0.3
        )
        estimator.fit(features, labels, shard_dir=shard_dir)
        estimator.save(registry_dir)

        asyncio.run(serve_async(registry_dir))
        shed_load(registry_dir, shard_dir)

    print("\nSee `python -m repro serve --workers N` for the CLI cluster tier")
    print("with graceful SIGINT/SIGTERM drain, and the 'Scale-out serving'")
    print("section of the README for the full picture.")


if __name__ == "__main__":
    # ClusterService forks its workers from a fork server that never runs this
    # file, but each worker still imports it (as __mp_main__) to unpickle its
    # arguments, so cluster code must stay behind the __main__ guard.
    main()
