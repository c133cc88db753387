"""The dispatcher's own score array: hits cost no frame, and a generation move empties it.

A worker answers a ``predict`` with the run of its stored scores around the
row, and the dispatcher keeps that run for the manifest generation it
belongs to, so later asks for those rows never leave the caller's thread.
These tests pin what makes that safe and accountable: a compaction is
followed within a poll or two even when no request reaches a worker, rows an
append adds are forwarded until the array is replaced, racing replies fill
each row once, and every request is counted exactly once.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.api import Dataset, Estimator
from repro.cluster import ClusterService, DeadlineExceeded, ServiceOverloaded
from repro.data.registry import DATASET_PROFILES

ROWS, BATCH = 400, 50

#: The dispatcher's and the workers' manifest poll, and what the test allows
#: on top of two of them for threads to be scheduled on a loaded machine.
POLL_SECONDS = 0.1
SLACK_SECONDS = 1.0


def test_all_hit_traffic_follows_a_compaction_within_two_polls(tmp_path):
    features, labels = DATASET_PROFILES["census"].classification(ROWS, seed=5)
    # DEN -> TOC: linreg's compressed-domain scores differ between the two
    # schemes in their last bits, so each answer shows its generation.
    dataset = Dataset.create(
        tmp_path / "shards", features, labels, scheme="DEN",
        batch_size=BATCH, executor="serial", shuffle=False,
    )
    estimator = Estimator("linreg", epochs=1, learning_rate=1e-3)
    estimator.fit(dataset)
    estimator.save(tmp_path / "registry")
    before = estimator.predict(Dataset.open(dataset.path))
    answered: list[tuple[float, int, float]] = []
    stop = threading.Event()

    def client(seed: int) -> None:
        rng = np.random.default_rng(seed)
        while not stop.is_set():
            row = int(rng.integers(ROWS))
            asked = time.monotonic()
            answered.append((asked, row, cluster.predict(row)))
            time.sleep(0.001)  # closed loop, slowed so the record stays small

    with ClusterService(
        tmp_path / "registry", shard_dir=dataset.path, workers=2, poll_seconds=POLL_SECONDS
    ) as cluster:
        # One row per shard: each reply brings its whole shard back.
        firsts = list(range(0, ROWS, BATCH))
        assert [cluster.predict(row) for row in firsts] == before[firsts].tolist()
        assert cluster.metrics()["gauges"]["cluster.server.rows_filled"] == ROWS
        forwarded = cluster.metrics()["counters"]["cluster.server.requests"]
        clients = [threading.Thread(target=client, args=(seed,)) for seed in range(2)]
        for thread in clients:
            thread.start()
        try:
            time.sleep(3 * POLL_SECONDS)
            counters = cluster.metrics()["counters"]
            # Up to here every request was answered by the dispatcher alone.
            hits = counters["cluster.server.cache_hits"]
            assert hits == counters["cluster.server.requests"] - forwarded > 0
            Dataset.open(dataset.path).compact(readvise=True, executor="serial")
            settled = time.monotonic() + 2 * POLL_SECONDS + SLACK_SECONDS
            after = estimator.predict(Dataset.open(dataset.path))
            while time.monotonic() < settled + 3 * POLL_SECONDS:
                time.sleep(POLL_SECONDS)
        finally:
            stop.set()
            for thread in clients:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in clients)

    changed = before != after
    assert changed.any(), "the two generations must be told apart"
    for _, row, value in answered:
        assert value in (before[row], after[row]), f"row {row} matches neither generation"
    late = [(row, value) for asked, row, value in answered if asked >= settled]
    assert any(changed[row] for row, _ in late), "no late answer tells the generations apart"
    stale = [row for row, value in late if value != after[row]]
    assert stale == [], f"{len(stale)} answers from the old generation after the swap settled"


def test_rows_an_append_adds_are_forwarded_until_the_array_grows(tmp_path):
    features, labels = DATASET_PROFILES["census"].classification(240, seed=9)
    dataset = Dataset.create(
        tmp_path / "shards", features[:180], labels[:180], scheme="TOC",
        batch_size=60, executor="serial", shuffle=False,
    )
    estimator = Estimator("logreg", epochs=1, learning_rate=0.3)
    estimator.fit(dataset)
    estimator.save(tmp_path / "registry")
    with ClusterService(
        tmp_path / "registry", shard_dir=dataset.path, workers=1, poll_seconds=POLL_SECONDS
    ) as one:
        assert one.predict(0) == estimator.predict(dataset)[0]
        dataset.append(features[180:], labels[180:], executor="serial")
        expected = estimator.predict(Dataset.open(dataset.path))
        give_up = time.monotonic() + 2 * POLL_SECONDS + SLACK_SECONDS
        while one.generations() != [2] and time.monotonic() < give_up:
            time.sleep(POLL_SECONDS / 4)
        # The worker serves row 200 once it reopened, whatever the dispatcher's array holds.
        assert one.predict(200) == expected[200]
        time.sleep(2 * POLL_SECONDS + SLACK_SECONDS)  # the dispatcher's poll has run too
        assert one.predict(200) == expected[200]  # forwarded: the new array is empty
        hits = one.metrics()["counters"]["cluster.server.cache_hits"]
        assert [one.predict(row) for row in (181, 239)] == expected[[181, 239]].tolist()
        assert one.metrics()["counters"]["cluster.server.cache_hits"] == hits + 2
        assert one.metrics()["gauges"]["cluster.server.rows_filled"] == 60


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    features, labels = DATASET_PROFILES["census"].classification(240, seed=21)
    shard_dir = tmp_path_factory.mktemp("dispatcher-shards")
    registry = tmp_path_factory.mktemp("dispatcher-registry")
    dataset = Dataset.create(
        shard_dir, features, labels, scheme="TOC", batch_size=60, executor="serial"
    )
    estimator = Estimator("logreg", epochs=2, learning_rate=0.3)
    estimator.fit(dataset)
    estimator.save(registry)
    return registry, shard_dir, estimator.predict(dataset)


def test_every_request_is_a_hit_a_worker_request_a_shed_or_a_rejection(published):
    registry, shard_dir, expected = published
    with ClusterService(
        registry, shard_dir=shard_dir, workers=1, backlog=1, admission="reject"
    ) as one:
        assert one.predict(7) == expected[7]  # a miss: shard 0 comes back with it
        assert [one.predict(8), one.submit(9).result(timeout=0)] == expected[[8, 9]].tolist()
        assert one.predict_many([1, 2, 70]) == expected[[1, 2, 70]].tolist()  # always forwarded
        with pytest.raises(DeadlineExceeded):
            one.predict(100, deadline=-0.001)  # shard 1 is not held: shed at admission
        blocker = threading.Thread(target=lambda: one.predict_many(list(range(240)) * 2000))
        blocker.start()
        try:
            give_up = time.monotonic() + 10
            while one.inflight == 0 and time.monotonic() < give_up:
                time.sleep(0.001)
            assert one.inflight == 1
            with pytest.raises(ServiceOverloaded):
                one.predict(130)  # the only worker slot is taken
            assert one.predict(10) == expected[10]  # a held row needs no slot
        finally:
            blocker.join(timeout=60)
        assert not blocker.is_alive()
        metrics = one.metrics()

    counters = metrics["counters"]
    worker_requests = sum(
        value for key, value in counters.items() if key.startswith("cluster.worker.requests")
    )
    hits, shed, rejected = (
        counters[f"cluster.server.{name}"] for name in ("cache_hits", "shed", "rejected")
    )
    assert (hits, worker_requests, shed, rejected) == (3, 3, 1, 1)
    assert counters["cluster.server.requests"] == hits + worker_requests + shed + rejected
    assert metrics["gauges"]["cluster.server.rows_filled"] == 60


def test_racing_callers_and_replies_fill_each_row_once(published):
    """More callers than cores, two reader threads writing, a short switch interval."""
    registry, shard_dir, expected = published
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ClusterService(registry, shard_dir=shard_dir, workers=2) as cluster:
            answers: list[list[tuple[int, float]]] = [[] for _ in range(8)]

            def client(k: int) -> None:
                rng = np.random.default_rng(k)
                for row in rng.integers(0, 240, size=300).tolist():
                    answers[k].append((row, cluster.predict(row)))

            clients = [threading.Thread(target=client, args=(k,)) for k in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in clients)
            metrics = cluster.metrics()
    finally:
        sys.setswitchinterval(interval)

    rows = [row for answered in answers for row, _ in answered]
    assert len(rows) == 8 * 300
    assert all(value == expected[row] for answered in answers for row, value in answered)
    counters = metrics["counters"]
    worker_requests = sum(
        value for key, value in counters.items() if key.startswith("cluster.worker.requests")
    )
    hits = counters["cluster.server.cache_hits"]
    assert counters["cluster.server.requests"] == hits + worker_requests
    # A lost update of the fill count would leave it short of the rows it holds.
    assert metrics["gauges"]["cluster.server.rows_filled"] == 60 * len({row // 60 for row in rows})
