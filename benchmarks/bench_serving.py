"""Serving benchmarks: unbatched vs micro-batched vs cached backends.

The serving layer claims the paper's batching argument transfers to the read
side: coalescing concurrent single-row predict requests into mini-batches
amortizes the per-request overhead (queue hand-offs, decode, matvec) the
same way the MGD loop amortizes them during training.  This bench drives
the same closed-loop workload through three service configurations —

* ``unbatched`` — ``max_batch_size=1``, raw feature vectors
  (``predict_vector``): every request is its own model call;
* ``microbatch`` — the same vectors, coalesced into mini-batches;
* ``cached`` — the workload's row ids (``predict_id``), answered out of the
  score array once each row's shard is scored —

and asserts the micro-batched backend beats the unbatched one.  A stored row
is scored once and then never runs the model again, so only vector traffic
still shows what coalescing buys.  Every run
writes ``BENCH_serving.json`` (plus the session-level ``bench_json`` rows)
so the serving trajectory accumulates alongside the training benches.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.api import Dataset, Estimator
from repro.bench.runner import write_bench_json
from repro.data.registry import DATASET_PROFILES
from repro.serve.service import PredictionService

ROWS = 1200
BATCH_SIZE = 150
REQUESTS = 1200
CLIENTS = 8
MEASURE_ROUNDS = 2  # best-of damps scheduler noise on shared runners
OVERHEAD_ROUNDS = 4  # interleaved instrumented/uninstrumented pairs

#: Each backend's batcher bound and traffic: raw vectors or stored row ids.
BACKENDS = {
    "unbatched": (1, "vectors"),
    "microbatch": (64, "vectors"),
    "cached": (64, "ids"),
}


@pytest.fixture(scope="module")
def serving_setup(tmp_path_factory):
    """Train out-of-core once and publish a checkpoint to serve from."""
    features, labels = DATASET_PROFILES["census"].classification(ROWS, seed=3)
    shard_dir = tmp_path_factory.mktemp("serving-shards")
    registry_dir = tmp_path_factory.mktemp("serving-registry")
    dataset = Dataset.create(
        shard_dir, features, labels, scheme="TOC", batch_size=BATCH_SIZE, workers=1
    )
    estimator = Estimator(
        "logreg", scheme="TOC", batch_size=BATCH_SIZE, epochs=2, learning_rate=0.3,
        budget_ratio=2.0,
    )
    estimator.fit(dataset)
    estimator.save(registry_dir)

    rng = np.random.default_rng(0)
    hot = rng.choice(ROWS, size=ROWS // 5, replace=False)
    workload = np.where(
        rng.random(REQUESTS) < 0.8,
        rng.choice(hot, size=REQUESTS),
        rng.integers(0, ROWS, size=REQUESTS),
    )
    return registry_dir, len(dataset), workload


def _measure_backends(registry_dir, workload: np.ndarray, backends) -> dict:
    """Best-of-N closed-loop throughput per service configuration.

    The rounds are interleaved across the configurations, so a slow spell
    of the machine lands on all of them rather than on whichever ran then.
    """
    best: dict[str, dict] = {}
    for _ in range(MEASURE_ROUNDS):
        for backend in backends:
            row = _measure_once(registry_dir, workload, backend)
            if backend not in best or row["throughput_rps"] > best[backend]["throughput_rps"]:
                best[backend] = row
    return best


def _measure_once(registry_dir, workload: np.ndarray, backend: str) -> dict:
    """One closed-loop pass of the workload through a fresh service."""
    max_batch_size, traffic = BACKENDS[backend]
    service, _ = PredictionService.from_registry(registry_dir, max_batch_size=max_batch_size)
    with service:
        if traffic == "vectors":
            call, requests = service.predict_vector, service.store.get_rows(workload)
        else:
            call, requests = service.predict_id, workload
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENTS) as clients:
            list(clients.map(call, requests))
        wall = time.perf_counter() - start
        stats = service.stats.snapshot()
        queued = service.metrics()["histograms"]["serve.request.seconds"]
        row = {
            "bench": "serving",
            "backend": backend,
            "traffic": traffic,
            "requests": REQUESTS,
            "clients": CLIENTS,
            "wall_seconds": wall,
            "throughput_rps": REQUESTS / wall,
            "model_calls": service.batcher_stats.batches,
            "mean_batch_size": service.batcher_stats.mean_batch_size,
            "cache_hit_rate": stats.cache_hit_rate,
            "mean_queued_request_us": queued["mean"] * 1e6,
        }
    return row


def test_microbatching_beats_unbatched(bench_json, serving_setup):
    """The acceptance gate: micro-batched throughput strictly above unbatched."""
    registry_dir, n_shards, workload = serving_setup
    results = _measure_backends(registry_dir, workload, BACKENDS)
    for row in results.values():
        bench_json("serving", **{key: value for key, value in row.items() if key != "bench"})
    results["microbatch"]["speedup_vs_unbatched"] = (
        results["microbatch"]["throughput_rps"] / results["unbatched"]["throughput_rps"]
    )
    results["cached"]["speedup_vs_unbatched"] = (
        results["cached"]["throughput_rps"] / results["unbatched"]["throughput_rps"]
    )

    # Overhead gate: the same micro-batched traffic with every obs metric and
    # span turned into a no-op.  Instrumented throughput must stay within 5%
    # (a unit counter increment is a lock-free tick, and the batcher observes
    # once per batch, so the per-request cost is ~a few µs).
    # Measured as interleaved best-of pairs — scheduler noise between rounds
    # is far larger than the effect being measured, and interleaving keeps
    # warm-up / thermal drift from landing entirely on one side.
    instrumented_rps = uninstrumented_rps = 0.0
    try:
        for _ in range(OVERHEAD_ROUNDS):
            obs.set_enabled(True)
            row = _measure_backends(registry_dir, workload, ["microbatch"])
            instrumented_rps = max(instrumented_rps, row["microbatch"]["throughput_rps"])
            obs.set_enabled(False)
            row = _measure_backends(registry_dir, workload, ["microbatch"])
            uninstrumented_rps = max(uninstrumented_rps, row["microbatch"]["throughput_rps"])
    finally:
        obs.set_enabled(True)
    overhead_ratio = instrumented_rps / uninstrumented_rps
    results["instrumentation_overhead"] = {
        "bench": "serving",
        "backend": "instrumentation_overhead",
        "instrumented_rps": instrumented_rps,
        "uninstrumented_rps": uninstrumented_rps,
        "overhead_ratio": overhead_ratio,
    }

    path = write_bench_json("serving", list(results.values()))
    print(f"\nwrote serving comparison to {path}")
    for backend, row in results.items():
        if "throughput_rps" not in row:
            continue
        print(
            f"{backend:<11} {row['throughput_rps']:>9,.0f} req/s "
            f"(mean batch {row['mean_batch_size']:.1f}, "
            f"cache {row['cache_hit_rate']:.0%})"
        )
    print(
        f"instrumentation overhead: {instrumented_rps:,.0f} instrumented vs "
        f"{uninstrumented_rps:,.0f} uninstrumented req/s "
        f"(ratio {overhead_ratio:.3f})"
    )

    # Identical traffic, identical store: coalescing must win, and the
    # unbatched backend must genuinely not coalesce.
    assert results["unbatched"]["mean_batch_size"] == 1.0
    assert results["microbatch"]["mean_batch_size"] > 1.0
    assert results["microbatch"]["throughput_rps"] > results["unbatched"]["throughput_rps"]
    # The score array absorbs every row id but each shard's first.
    assert results["cached"]["cache_hit_rate"] > 0.3
    # Bounded-overhead gate (both sides best-of-N, so the ratio is stable).
    assert overhead_ratio >= 0.95, (
        f"instrumentation costs more than 5% of serving throughput "
        f"(ratio {overhead_ratio:.3f})"
    )


def test_bulk_path_beats_single_row(bench_json, serving_setup):
    """The no-queue bulk API is the upper bound on the single-row path."""
    registry_dir, n_shards, workload = serving_setup
    service, _ = PredictionService.from_registry(registry_dir)
    with service:
        service.predict_ids(range(ROWS))  # warm
        start = time.perf_counter()
        service.predict_ids(workload)
        bulk_wall = time.perf_counter() - start

        start = time.perf_counter()
        for row_id in workload[:200]:
            service.predict_id(row_id)
        single_wall = time.perf_counter() - start

    bulk_rps = len(workload) / bulk_wall
    single_rps = 200 / single_wall
    bench_json(
        "serving_bulk",
        bulk_throughput_rps=bulk_rps,
        single_row_throughput_rps=single_rps,
    )
    assert bulk_rps > single_rps
