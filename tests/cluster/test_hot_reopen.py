"""Hot-reopen: workers follow a manifest-generation swap without downtime.

Compacting a live dataset rewrites its shards and deletes the superseded
files.  Workers must notice the manifest-generation bump (or hit the stale
file descriptor and recover) and keep answering — no request may error and
post-swap predictions must match the pre-swap model output.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import Dataset, Estimator, open_service
from repro.cluster import ClusterService
from repro.data.registry import DATASET_PROFILES

N_ROWS = 240


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    features, labels = DATASET_PROFILES["census"].classification(N_ROWS, seed=33)
    shard_dir = tmp_path_factory.mktemp("reopen-shards")
    registry = tmp_path_factory.mktemp("reopen-registry")
    # DEN shards so readvise re-encodes to a sparser scheme and the compact
    # actually replaces (and unlinks) the files the workers hold open.
    dataset = Dataset.create(
        shard_dir, features, labels, scheme="DEN", batch_size=60, workers=1
    )
    estimator = Estimator("logreg", epochs=2, learning_rate=0.3)
    estimator.fit(dataset)
    estimator.save(registry)
    # Baseline from the stored rows, the workers' actual serving inputs.
    service, _ = open_service(registry)
    expected = np.asarray(
        estimator.predict(service.store.get_rows(list(range(N_ROWS))))
    )
    service.close()
    return registry, shard_dir, dataset, expected


class TestHotReopen:
    def test_compact_under_load_drops_no_requests(self, live, pin_calibration):
        registry, shard_dir, dataset, expected = live
        pin_calibration(shard_dir, {"TOC": 1e-9})
        with ClusterService(
            registry,
            shard_dir=shard_dir,
            workers=2,
            backlog=16,
            poll_seconds=0.1,
        ) as cluster:
            generation_before = max(cluster.generations())
            errors: list[BaseException] = []
            answered = 0
            stop = threading.Event()
            lock = threading.Lock()

            def hammer():
                nonlocal answered
                i = 0
                while not stop.is_set():
                    try:
                        if i % 2:  # a bulk request queues on the worker's batcher
                            cluster.predict_many([i % N_ROWS, (i * 7) % N_ROWS])
                        else:  # a single row queues there until its row is scored
                            cluster.predict(i % N_ROWS)
                    except BaseException as exc:  # noqa: BLE001 - recorded
                        with lock:
                            errors.append(exc)
                    else:
                        with lock:
                            answered += 1
                    i += 1

            client = threading.Thread(target=hammer)
            client.start()
            try:
                time.sleep(0.3)  # requests in flight before the swap
                stats = dataset.compact(readvise=True, workers=1)
                assert stats is not None
                # Wait for every worker to observe the new generation.
                deadline = time.monotonic() + 30
                target = generation_before + 1
                while (
                    min(cluster.generations()) < target
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.1)
                time.sleep(0.3)  # keep hammering against the new shards
            finally:
                stop.set()
                client.join(timeout=30)

            assert errors == []
            assert answered > 0
            assert min(cluster.generations()) == target
            # Post-swap correctness: the rewritten shards decode to the
            # same features, so predictions are unchanged.
            np.testing.assert_allclose(
                cluster.predict_many(range(N_ROWS)), expected
            )
