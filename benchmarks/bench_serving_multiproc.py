"""Multi-process serving benchmarks: scale-out throughput and load-shedding.

The cluster tier claims two things worth gating on:

* **scale-out** — N worker processes decode on N cores, so cluster
  throughput should beat a single worker on a multi-core box (the GIL
  serialises decode inside one process).  On a single-core runner the
  speedup cannot materialise, so the ``>= 1.5x`` assertion is gated on
  ``os.cpu_count()`` (same precedent as ``bench_ooc_engine``) — the numbers
  are still recorded for the trajectory;
* **bounded overload behaviour** — when offered load exceeds capacity the
  service must fail the excess *fast* with explicit errors (no hangs, no
  unbounded queueing) while the accepted requests' tail latency stays
  bounded by the deadline.

Both legs send each request as a one-row ``predict_many`` frame.  A single-row
``predict`` of a row some worker has answered is served by the dispatcher's
own score array without reaching a worker, so after warm-up it would time
the dispatcher alone and never fill a worker's backlog; a ``predict_many``
is always forwarded.

Every run writes ``BENCH_serving_multiproc.json`` (plus session-level
``bench_json`` rows), which CI keeps as an artifact.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Dataset, Estimator
from repro.bench.runner import write_bench_json
from repro.cluster import DEADLINE_GRACE_SECONDS, ClusterError, ClusterService
from repro.data.registry import DATASET_PROFILES

ROWS = 600
BATCH_SIZE = 150
REQUESTS = 600
CLIENTS = 8

#: Worker counts compared by the scale-out leg.
SINGLE = 1
MULTI = min(4, max(2, os.cpu_count() or 2))

#: Saturation leg: a deliberately tiny cluster driven far past capacity.
SATURATION_DEADLINE = 2.0
SATURATION_CLIENTS = 16
SATURATION_REQUESTS = 400


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    """Train out-of-core once and publish a checkpoint to serve from."""
    features, labels = DATASET_PROFILES["census"].classification(ROWS, seed=3)
    shard_dir = tmp_path_factory.mktemp("multiproc-shards")
    registry_dir = tmp_path_factory.mktemp("multiproc-registry")
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
    return registry_dir, shard_dir, workload


def _forwarded(cluster: ClusterService, row_id) -> float:
    """One row, as a request the dispatcher always sends to a worker."""
    return cluster.predict_many([int(row_id)])[0]


def _measure_cluster(registry_dir, shard_dir, workload, workers: int) -> dict:
    """Closed-loop throughput through a cluster of ``workers`` processes."""
    with ClusterService(
        registry_dir, shard_dir=shard_dir, workers=workers, backlog=64
    ) as cluster:
        cluster.predict_many(range(ROWS))  # warm every worker-side decode path
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENTS) as clients:
            list(clients.map(lambda row_id: _forwarded(cluster, row_id), workload))
        wall = time.perf_counter() - start
    return {
        "bench": "serving_multiproc",
        "leg": "scaleout",
        "workers": workers,
        "requests": len(workload),
        "clients": CLIENTS,
        "cpu_count": os.cpu_count(),
        "wall_seconds": wall,
        "throughput_rps": len(workload) / wall,
    }


def test_multiworker_scaleout(bench_json, published):
    """1 vs N workers over identical traffic; speedup gated on core count."""
    registry_dir, shard_dir, workload = published
    single = _measure_cluster(registry_dir, shard_dir, workload, SINGLE)
    multi = _measure_cluster(registry_dir, shard_dir, workload, MULTI)
    multi["speedup_vs_single"] = multi["throughput_rps"] / single["throughput_rps"]
    for row in (single, multi):
        bench_json(
            "serving_multiproc",
            **{key: value for key, value in row.items() if key != "bench"},
        )
    path = write_bench_json("serving_multiproc", [single, multi])
    print(f"\nwrote multi-process serving comparison to {path}")
    print(
        f"{SINGLE} worker  {single['throughput_rps']:>9,.0f} req/s\n"
        f"{MULTI} workers {multi['throughput_rps']:>9,.0f} req/s "
        f"(speedup {multi['speedup_vs_single']:.2f}x on "
        f"{os.cpu_count()} cores)"
    )
    if (os.cpu_count() or 1) < 2:
        pytest.skip("single-core machine: multi-worker speedup not expected")
    assert multi["speedup_vs_single"] >= 1.5, (
        f"{MULTI} workers only {multi['speedup_vs_single']:.2f}x a single "
        f"worker on a {os.cpu_count()}-core machine — noisy runner?"
    )


def test_saturation_sheds_fast_and_bounds_accepted_tail(bench_json, published):
    """2x overload: excess fails fast with explicit errors, accepted p99 bounded."""
    registry_dir, shard_dir, workload = published
    accepted: list[float] = []
    shed: list[float] = []

    with ClusterService(
        registry_dir,
        shard_dir=shard_dir,
        workers=1,
        backlog=2,
        admission="reject",
        default_deadline=SATURATION_DEADLINE,
    ) as cluster:
        cluster.predict_many(range(ROWS))  # warm

        def client(row_id) -> tuple[bool, float]:
            start = time.perf_counter()
            try:
                _forwarded(cluster, row_id)
            except ClusterError:
                return False, time.perf_counter() - start
            return True, time.perf_counter() - start

        with ThreadPoolExecutor(max_workers=SATURATION_CLIENTS) as clients:
            outcomes = list(
                clients.map(client, workload[:SATURATION_REQUESTS])
            )
    for ok, seconds in outcomes:
        (accepted if ok else shed).append(seconds)

    assert accepted, "saturated cluster answered nothing"
    assert shed, "16 clients against backlog 2 never tripped admission"
    p99_accepted = float(np.percentile(accepted, 99))
    worst_shed = max(shed)
    row = {
        "bench": "serving_multiproc",
        "leg": "saturation",
        "clients": SATURATION_CLIENTS,
        "requests": SATURATION_REQUESTS,
        "accepted": len(accepted),
        "shed": len(shed),
        "deadline_seconds": SATURATION_DEADLINE,
        "p99_accepted_seconds": p99_accepted,
        "worst_shed_seconds": worst_shed,
    }
    bench_json(
        "serving_multiproc",
        **{key: value for key, value in row.items() if key != "bench"},
    )
    write_bench_json("serving_multiproc_saturation", [row])
    print(
        f"\nsaturation: {len(accepted)} accepted / {len(shed)} shed, "
        f"accepted p99 {p99_accepted * 1e3:.0f}ms, "
        f"worst shed {worst_shed * 1e3:.0f}ms"
    )
    # Shed requests failed fast — rejected at admission, far inside the
    # deadline — and accepted requests' tail stayed deadline-bounded.
    assert worst_shed < SATURATION_DEADLINE
    assert p99_accepted <= SATURATION_DEADLINE + DEADLINE_GRACE_SECONDS
