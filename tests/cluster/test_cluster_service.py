"""Tests for the multi-process serving tier (dispatcher + workers)."""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import re
import shutil
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Dataset, Estimator, open_service
from repro.cluster import (
    ClusterService,
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
    WorkerCrashed,
)
from repro.cluster import server
from repro.cluster.protocol import MAX_ROW_IDS, ProtocolError
from repro.cluster.server import SPAWN_CONNECT_TIMEOUT
from repro.data.registry import DATASET_PROFILES

N_ROWS = 240


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    features, labels = DATASET_PROFILES["census"].classification(N_ROWS, seed=21)
    shard_dir = tmp_path_factory.mktemp("cluster-shards")
    registry = tmp_path_factory.mktemp("cluster-registry")
    dataset = Dataset.create(
        shard_dir, features, labels, scheme="TOC", batch_size=60, workers=1
    )
    estimator = Estimator("logreg", epochs=2, learning_rate=0.3)
    estimator.fit(dataset)
    estimator.save(registry)
    # The authoritative baseline comes from the same store the workers read:
    # stored rows are the model's actual serving inputs.
    service, _ = open_service(registry)
    expected = np.asarray(
        estimator.predict(service.store.get_rows(list(range(N_ROWS))))
    )
    service.close()
    return registry, shard_dir, expected


@pytest.fixture(scope="module")
def cluster(published):
    """One two-worker cluster shared by the read-only tests (their answers
    must not depend on which test ran first; a start is only a fork)."""
    registry, shard_dir, _ = published
    service = ClusterService(
        registry, shard_dir=shard_dir, workers=2, backlog=8
    )
    yield service
    service.close()


class TestServing:
    def test_ping_reports_every_worker(self, cluster):
        statuses = cluster.ping()
        assert [s["worker"] for s in statuses] == [0, 1]
        assert all(s["n_rows"] == N_ROWS for s in statuses)
        assert len({s["pid"] for s in statuses}) == 2

    def test_workers_inherit_the_fork_servers_imports(self, cluster):
        # False means the fork server could not import repro.cluster.worker
        # (its sys.path is not ours) and every worker paid the import itself.
        assert [s["preloaded"] for s in cluster.ping()] == [True, True]

    def test_predictions_match_the_model(self, cluster, published):
        _, _, expected = published
        ids = [0, 17, 100, N_ROWS - 1]
        values = [cluster.predict(i) for i in ids]
        np.testing.assert_allclose(values, expected[ids])

    def test_predict_many_bulk_path(self, cluster, published):
        _, _, expected = published
        values = cluster.predict_many(range(N_ROWS))
        np.testing.assert_allclose(values, expected)

    def test_concurrent_clients_spread_over_workers(self, cluster, published):
        _, _, expected = published
        results: dict[int, float] = {}
        lock = threading.Lock()

        def client(start: int) -> None:
            for i in range(start, N_ROWS, 8):
                value = cluster.predict(i)
                with lock:
                    results[i] = value

        threads = [threading.Thread(target=client, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == N_ROWS
        np.testing.assert_allclose(
            [results[i] for i in range(N_ROWS)], expected
        )

    def test_submit_returns_a_future(self, cluster, published):
        _, _, expected = published
        future = cluster.submit(3)
        assert future.result(timeout=10) == pytest.approx(expected[3])

    def test_unknown_row_fails_that_request_only(self, cluster):
        with pytest.raises(IndexError, match=re.escape(f"row {N_ROWS + 5000} out of range")):
            cluster.predict_many([0, N_ROWS + 5000])
        assert cluster.predict(0) is not None  # the worker survived

    def test_expired_deadline_is_shed_with_explicit_error(self, cluster):
        # A bulk request always goes through admission; a row the dispatcher
        # holds would be answered, deadline or not, as in-process.
        with pytest.raises(DeadlineExceeded):
            cluster.predict_many([0], deadline=-0.001)

    def test_metrics_have_per_worker_labels(self, cluster):
        cluster.predict(0)
        metrics = cluster.metrics()
        assert sorted(metrics["workers"]) == ["0", "1"]
        counters = metrics["counters"]
        assert "cluster.worker.requests{worker=0}" in counters
        assert "cluster.worker.requests{worker=1}" in counters
        assert "cluster.server.requests" in counters
        assert counters["cluster.server.respawn_failures"] == 0
        assert metrics["histograms"]["cluster.server.worker_start_seconds"]["count"] >= 2
        gauges = metrics["gauges"]
        assert "cluster.worker.queue_depth{worker=0}" in gauges
        # Every worker also reports its own full serve-level snapshot.
        assert "serve.requests" in metrics["workers"]["0"]["counters"]

    def test_generations_visible(self, cluster):
        assert cluster.generations() == [1, 1]

    def test_a_dispatcher_hit_takes_no_cluster_lock(self, cluster):
        expected = cluster.predict(3)  # the reply brings row 3's shard back
        answered: list = []
        caller = threading.Thread(target=lambda: answered.append(cluster.predict(3)))
        with cluster._lock:
            caller.start()
            caller.join(timeout=10)
        assert answered == [expected]


def _wait_for(condition, seconds: float) -> bool:
    give_up = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > give_up:
            return False
        time.sleep(0.01)
    return True


def _children() -> set[str]:
    return {child.name for child in multiprocessing.active_children()}


class TestCrashRecovery:
    def test_worker_crash_heals_by_respawn(self, cluster, published):
        _, _, expected = published
        pids_before = {s["worker"]: s["pid"] for s in cluster.ping()}
        cluster.crash_worker(0)
        # Poll until the respawned worker answers with a fresh pid; pings
        # during the down window legitimately fail with WorkerCrashed.
        deadline = time.monotonic() + 60
        pids_after = None
        while time.monotonic() < deadline:
            try:
                pids = {s["worker"]: s["pid"] for s in cluster.ping()}
            except WorkerCrashed:
                pids = {}
            if len(pids) == 2 and pids[0] != pids_before[0]:
                pids_after = pids
                break
            time.sleep(0.05)
        assert pids_after is not None, "worker 0 was not respawned in time"
        assert pids_after[1] == pids_before[1]  # the other one untouched
        np.testing.assert_allclose(
            cluster.predict_many([0, 1, 2]), expected[[0, 1, 2]]
        )

    def test_failed_respawn_is_retried_until_it_heals(self, published, tmp_path):
        registry, shard_dir, expected = published
        shards, away = tmp_path / "shards", tmp_path / "away"
        shutil.copytree(shard_dir, shards)

        def counter(service, name):
            return service.metrics()["counters"][f"cluster.server.{name}"]

        with ClusterService(registry, shard_dir=shards, workers=2, backlog=8) as service:
            shards.rename(away)
            service.crash_worker(0)
            assert _wait_for(lambda: counter(service, "respawn_failures") >= 1, 10)
            assert service.alive_workers == 1
            assert counter(service, "respawns") == 0  # nothing came back yet
            away.rename(shards)
            assert _wait_for(lambda: service.alive_workers == 2, 5)
            assert counter(service, "respawns") == 1
            assert [s["worker"] for s in service.ping()] == [0, 1]
            np.testing.assert_allclose(service.predict_many(range(N_ROWS)), expected)

    def test_crash_under_load_fails_only_what_was_in_flight(self, published):
        registry, shard_dir, expected = published
        stop = threading.Event()
        answered, crashed, other = [], [], []

        def client(offset: int) -> None:
            rows = list(range(offset, N_ROWS, 2))
            while not stop.is_set():
                try:
                    values = service.predict_many(rows)
                except WorkerCrashed as exc:
                    crashed.append(exc)
                except Exception as exc:  # anything else is the bug
                    other.append(exc)
                else:
                    answered.append(np.allclose(values, expected[rows]))

        with ClusterService(
            registry, shard_dir=shard_dir, workers=2, backlog=8
        ) as service:
            clients = [threading.Thread(target=client, args=(k,)) for k in range(2)]
            for thread in clients:
                thread.start()
            try:
                assert _wait_for(lambda: len(answered) >= 20, 10)
                before = {s["worker"]: s["pid"] for s in service.ping()}
                service.crash_worker(0)
                time.sleep(1.0)  # no ping in between: a failed one would count as crashed
                after = {s["worker"]: s["pid"] for s in service.ping()}
                served = len(answered)
                assert _wait_for(lambda: len(answered) >= served + 20, 10)
            finally:
                stop.set()
                for thread in clients:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in clients)
            assert after.keys() == before.keys() == {0, 1}
            assert after[0] != before[0] and after[1] == before[1]
            assert other == [] and all(answered)
            counters = service.metrics()["counters"]
            assert len(crashed) == counters["cluster.server.crashed_requests"]
            assert counters["cluster.server.respawns"] == 1


class TestLifecycle:
    def test_startup_failure_names_its_cause_and_leaves_no_process(self, published, tmp_path):
        registry, _, _ = published
        children = _children()
        start = time.monotonic()
        with pytest.raises(
            WorkerCrashed,
            match="worker 0 failed to start: FileNotFoundError: no shard manifest at",
        ):
            open_service(registry, workers=2, shard_dir=tmp_path / "missing")
        assert time.monotonic() - start < SPAWN_CONNECT_TIMEOUT / 6
        assert _children() == children

    def test_close_racing_a_respawn_leaves_no_process(self, published):
        registry, shard_dir, _ = published
        children = _children()
        for _ in range(20):
            service = ClusterService(registry, shard_dir=shard_dir, workers=2, backlog=4)
            service.crash_worker(0)
            service.close()
            assert _children() == children

    def test_open_close_cycles_leak_no_process_and_no_descriptor(self, published):
        registry, shard_dir, _ = published
        has_proc = os.path.isdir("/proc/self/fd")

        def cycle() -> tuple:
            with ClusterService(registry, shard_dir=shard_dir, workers=2, backlog=4) as service:
                assert len(service.ping()) == 2
            return _children(), len(os.listdir("/proc/self/fd")) if has_proc else None

        # The first one may start the fork server and its pipes.  A later cycle
        # may hold fewer descriptors than that (a lazily opened one closed
        # meanwhile, seen under -X dev) — fewer is not a leak, more is.
        start_children, start_fds = cycle()
        for _ in range(10):
            children, fds = cycle()
            assert children == start_children
            assert fds is None or fds <= start_fds

    def test_drain_on_close_answers_everything_already_submitted(self, published):
        registry, shard_dir, expected = published
        service = ClusterService(
            registry, shard_dir=shard_dir, workers=2, backlog=64
        )
        futures = [service.submit(i) for i in range(100)]
        service.close(drain=True)
        assert all(future.done() for future in futures)
        np.testing.assert_allclose([f.result(timeout=0) for f in futures], expected[:100])


class TestBackpressure:
    @pytest.fixture(scope="class")
    def tiny(self, published):
        """workers=1, backlog=1: one in-flight request saturates the cluster."""
        registry, shard_dir, _ = published
        service = ClusterService(
            registry,
            shard_dir=shard_dir,
            workers=1,
            backlog=1,
            admission="reject",
        )
        yield service
        service.close()

    def test_saturated_reject_fails_fast(self, tiny):
        # A large bulk request occupies the single slot for a while...
        blocker = threading.Thread(
            target=lambda: tiny.predict_many(list(range(N_ROWS)) * 2000)
        )
        blocker.start()
        try:
            give_up = time.monotonic() + 10
            while tiny.inflight == 0 and time.monotonic() < give_up:
                time.sleep(0.001)
            assert tiny.inflight == 1
            # ... so the next request is refused immediately, not queued.
            start = time.monotonic()
            with pytest.raises(ServiceOverloaded):
                tiny.submit(0)
            assert time.monotonic() - start < 1.0
        finally:
            blocker.join(timeout=60)
        assert tiny.metrics()["counters"]["cluster.server.rejected"] >= 1

    def test_close_rejects_new_work_with_service_closed(self, published):
        registry, shard_dir, _ = published
        service = ClusterService(
            registry, shard_dir=shard_dir, workers=1, backlog=4
        )
        assert service.predict(0) is not None
        service.close()
        with pytest.raises(ServiceClosed):
            service.predict(1)
        service.close()  # idempotent


class TestBlockingAdmission:
    def test_blocked_admission_sheds_on_deadline(self, published):
        registry, shard_dir, _ = published
        service = ClusterService(
            registry,
            shard_dir=shard_dir,
            workers=1,
            backlog=1,
            admission="block",
        )
        try:
            # A bulk request is a gather out of the score array, so it takes
            # nearly a frame's worth of ids (MAX_ROW_IDS) to hold the only
            # worker for a few deadlines: most of that is framing 2M ids each way.
            blocker = threading.Thread(
                target=lambda: service.predict_many(list(range(N_ROWS)) * 8000)
            )
            blocker.start()
            give_up = time.monotonic() + 10
            while service.inflight == 0 and time.monotonic() < give_up:
                time.sleep(0.001)
            assert service.inflight == 1
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                service.predict(0, deadline=0.1)
            # Shed when the deadline passed, not when the blocker finished.
            assert time.monotonic() - start < 5
            blocker.join(timeout=60)
        finally:
            service.close()


class TestUnansweredFutures:
    """A future nobody resolves ends in the cluster's own errors on every Python.

    Before 3.11 ``Future.result(timeout=...)`` raises
    ``concurrent.futures.TimeoutError``, a class of its own rather than the
    builtin; the ``as_before_3_11`` leg swaps such a class in on later versions.
    """

    @pytest.fixture(params=["native", "as_before_3_11"])
    def futures_timeout(self, request, monkeypatch):
        if request.param == "as_before_3_11":

            class FuturesTimeout(concurrent.futures._base.Error):
                pass

            monkeypatch.setattr(concurrent.futures._base, "TimeoutError", FuturesTimeout)
            monkeypatch.setattr(concurrent.futures, "TimeoutError", FuturesTimeout)

    def test_an_answer_past_deadline_and_grace_is_deadline_exceeded(
        self, cluster, futures_timeout, monkeypatch
    ):
        monkeypatch.setattr(server, "DEADLINE_GRACE_SECONDS", 0.01)
        before = cluster.metrics()["counters"]["cluster.server.shed"]
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded, match="before the worker answered"):
            cluster._await(Future(), time.monotonic() + 0.01)
        assert time.monotonic() - start < 1.0
        assert cluster.metrics()["counters"]["cluster.server.shed"] == before + 1

    def test_an_unanswered_control_frame_is_a_crash_and_frees_its_slot(
        self, cluster, futures_timeout, monkeypatch
    ):
        monkeypatch.setattr(cluster, "_send", lambda handle, req_id, message: None)
        with pytest.raises(WorkerCrashed, match="did not answer 'ping' within 0.05s"):
            cluster._control(cluster._handles[0], "ping", timeout=0.05)
        assert cluster.inflight == 0


class TestMonotonicDeadlines:
    def test_no_wall_clock_reads_under_cluster(self):
        from pathlib import Path

        import repro.cluster

        for source in Path(repro.cluster.__file__).parent.glob("*.py"):
            assert "time.time()" not in source.read_text(), source.name

    @pytest.mark.parametrize("step", [-3600.0, 3600.0], ids=["backwards", "forwards"])
    def test_wall_clock_step_neither_sheds_nor_immortalises(
        self, cluster, published, monkeypatch, step
    ):
        _, _, expected = published
        real = time.time
        monkeypatch.setattr(time, "time", lambda: real() + step)
        # Bulk requests: their deadlines cross to a worker, whatever the
        # dispatcher's own array holds.
        assert cluster.predict_many([0], deadline=5.0) == pytest.approx([expected[0]])
        with pytest.raises(DeadlineExceeded):
            cluster.predict_many([0], deadline=-0.001)


class TestWorkerServesThroughThePipeline:
    """A worker is an adapter: the counters are the service's own events."""

    @pytest.fixture(scope="class")
    def single(self, published):
        registry, shard_dir, _ = published
        # max_batch_size=1: a request queued behind another is never coalesced
        # into its batch, so "waited in the queue" below is deterministic.
        # The worker keeps each 60-row shard's scores once computed; the tests
        # that need a miss ask for shards no other test here touches.
        service = ClusterService(
            registry, shard_dir=shard_dir, workers=1, backlog=4, max_batch_size=1,
        )
        yield service
        service.close()

    @staticmethod
    def _worker_counters(service) -> dict:
        metrics = service.metrics()
        counters = dict(metrics["workers"]["0"]["counters"])
        counters["shed"] = sum(
            value for key, value in metrics["counters"].items()
            if key.startswith("cluster.worker.shed")
        )
        return counters

    def test_serve_requests_counts_requests_not_bulk_calls(self, single):
        before = self._worker_counters(single)
        # Bulk requests, which the dispatcher never answers itself.
        for _ in range(3):
            single.predict_many([7])  # scores shard 0: one miss, then two cache hits
        single.predict_many([181, 182, 183])  # shard 3 is not resident: scored for these three
        after = self._worker_counters(single)

        def delta(key):
            return after[key] - before[key]

        assert delta("serve.requests") == 4
        assert delta("cluster.worker.requests{worker=0}") == 4
        assert delta("serve.cache.hits") == 2
        assert delta("cluster.worker.cache_hits{worker=0}") == 2
        assert delta("serve.rows_predicted") == 1 + 3
        histograms = single.metrics()["workers"]["0"]["histograms"]
        assert "serve.batch.size" in histograms and "serve.request.seconds" in histograms
        assert not any(key.startswith("cluster.worker.") for key in histograms)

    def test_an_id_out_of_range_fails_its_caller_alone(self, published):
        # Regression: two callers coalesced into one worker batch shared the
        # bad id's IndexError.  It is refused at the worker's door now.
        registry, shard_dir, expected = published
        with ClusterService(
            registry, shard_dir=shard_dir, workers=1, backlog=8
        ) as one:
            # Rows 0-59 are left out: row 5 must be a first touch, so it queues.
            blocker = threading.Thread(
                target=lambda: one.predict_many(list(range(60, N_ROWS)) * 2000)
            )
            blocker.start()
            try:
                give_up = time.monotonic() + 10
                while one.inflight == 0 and time.monotonic() < give_up:
                    time.sleep(0.001)
                # Both queue behind the bulk request, so they would share a batch.
                with ThreadPoolExecutor(max_workers=2) as callers:
                    good = callers.submit(one.predict, 5, deadline=60.0)
                    bad = callers.submit(one.predict, 5000, deadline=60.0)
                    # The class and message an in-process predict_id raises.
                    message = re.escape(f"row 5000 out of range [0, {N_ROWS})")
                    with pytest.raises(IndexError, match=f"^{message}$"):
                        bad.result(timeout=60)
                    assert good.result(timeout=60) == pytest.approx(expected[5])
            finally:
                blocker.join(timeout=60)
            assert not blocker.is_alive()

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: c.predict(2**63),
            lambda c: c.predict(-(2**63) - 1),
            lambda c: c.submit(2**63),
            lambda c: c.predict_many([0, 2**63]),
        ],
        ids=["predict", "predict_negative", "submit", "predict_many"],
    )
    def test_an_id_no_frame_can_carry_is_refused_before_admission(self, single, call):
        def counters():
            metrics = single.metrics()["counters"]
            return metrics["cluster.server.requests"], metrics["cluster.worker.requests{worker=0}"]

        before = counters()
        with pytest.raises(IndexError, match="out of range"):
            call(single)
        assert single.inflight == 0
        assert counters() == before  # not admitted, no frame sent

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: c.predict(1.7),
            lambda c: c.predict(np.float64(3.0)),
            lambda c: c.submit(True),
            lambda c: c.predict_many(np.array([1.7, 2.2])),
            lambda c: c.predict_many(np.array([True, False])),
            lambda c: c.predict_many([1, 2.0]),
        ],
        ids=["predict", "predict_numpy_float", "submit_bool", "predict_many", "mask", "mixed"],
    )
    def test_a_float_or_bool_id_is_refused_before_admission(self, single, call):
        # int() used to truncate these: 1.7 was answered as row 1, and a
        # boolean mask as rows [1, 0].
        before = single.metrics()["counters"]["cluster.server.requests"]
        with pytest.raises(TypeError):
            call(single)
        assert single.inflight == 0
        assert single.metrics()["counters"]["cluster.server.requests"] == before

    def test_queued_work_past_its_budget_is_shed_by_the_worker(self, single, published):
        _, _, expected = published
        before = self._worker_counters(single)["shed"]
        # Rows 60-119 are left out: shard 1's scores must not be resident,
        # or the two requests below are answered at once and never queue.
        elsewhere = [*range(60), *range(120, N_ROWS)]
        blocker = threading.Thread(target=lambda: single.predict_many(elsewhere * 10000))
        blocker.start()
        try:
            give_up = time.monotonic() + 10
            while single.inflight == 0 and time.monotonic() < give_up:
                time.sleep(0.001)
            # Admitted (backlog has room) and queued behind the bulk request;
            # its 10ms budget runs out long before the batcher gets to it.
            doomed = single.submit(100, deadline=0.01)
            patient = single.submit(101, deadline=60.0)
            with pytest.raises(DeadlineExceeded, match="in queue"):
                doomed.result(timeout=60)
            assert patient.result(timeout=60) == pytest.approx(expected[101])
        finally:
            blocker.join(timeout=60)
        assert self._worker_counters(single)["shed"] == before + 1


    def test_a_refusal_and_a_queued_shed_each_count_once(self, published):
        registry, shard_dir, _ = published

        # The dispatcher keeps the worker's in-flight at its backlog, so only
        # frames sent past admission (a slipped count) meet a full worker queue.
        def past_admission(row_id, deadline):
            handle = one._handles[0]
            with one._lock:
                req_id = next(one._req_ids)
                future = Future()
                handle.pending[req_id] = (future, "value")
            one._send(handle, req_id, {
                "op": "predict", "id": req_id, "row_id": row_id, "deadline": deadline,
            })
            return future

        def sheds():
            metrics = one.metrics()
            counters, worker = metrics["counters"], metrics["workers"]["0"]["counters"]
            counted = {"dispatcher": counters["cluster.server.shed"]}
            for reason in ("deadline", "overloaded"):
                counted[reason] = (
                    counters[f"cluster.worker.shed{{reason={reason},worker=0}}"],
                    worker[f"serve.shed{{reason={reason}}}"],
                )
            return counted

        def batches():
            return one.metrics()["workers"]["0"]["histograms"]["serve.batch.size"]["count"]

        with ClusterService(
            registry, shard_dir=shard_dir, workers=1, backlog=1, max_batch_size=1,
        ) as one:
            assert sheds() == {"dispatcher": 0, "deadline": (0, 0), "overloaded": (0, 0)}
            # Rows 0-59 are left out: row 5 must be a first touch, or it is
            # answered at once and never takes the queue slot.
            blocker = threading.Thread(
                target=lambda: one.predict_many(list(range(60, N_ROWS)) * 10000)
            )
            blocker.start()
            try:
                give_up = time.monotonic() + 10
                while batches() == 0 and time.monotonic() < give_up:
                    time.sleep(0.001)  # until the bulk request is in the worker's handler
                doomed = past_admission(5, 0.01)  # takes the worker's one queue slot ...
                refused = past_admission(6, 60.0)  # ... so this one is refused at the door
                with pytest.raises(ServiceOverloaded):
                    refused.result(timeout=10)
                with pytest.raises(DeadlineExceeded, match="in queue"):
                    doomed.result(timeout=60)
            finally:
                blocker.join(timeout=60)
            assert sheds() == {"dispatcher": 0, "deadline": (1, 1), "overloaded": (1, 1)}


class TestFrameLimits:
    @pytest.fixture(scope="class")
    def regression(self, published, tmp_path_factory):
        """A ``linreg`` model: full-precision answers, ~20 bytes each as JSON text."""
        _, shard_dir, _ = published
        registry = tmp_path_factory.mktemp("linreg-registry")
        dataset = Dataset.open(shard_dir)
        estimator = Estimator("linreg", epochs=2)
        estimator.fit(dataset)
        estimator.save(registry)
        return registry, shard_dir, estimator.predict(dataset)

    def test_a_reply_json_could_not_carry_is_answered(self, regression):
        # Regression: 960k answers were an 18.9 MB JSON reply; the worker's send
        # raised inside a done-callback, so the caller waited out its deadline
        # (DeadlineExceeded after 7 s) and the slot stayed taken for good.
        registry, shard_dir, expected = regression
        with ClusterService(registry, shard_dir=shard_dir, workers=1) as one:
            values = one.predict_many(list(range(N_ROWS)) * 4000, deadline=30.0)
            assert len(values) == N_ROWS * 4000
            np.testing.assert_array_equal(values[-N_ROWS:], expected)
            assert one.inflight == 0

    def test_a_request_over_the_frame_limit_fails_fast_and_takes_no_slot(self, regression):
        registry, shard_dir, expected = regression
        with ClusterService(registry, shard_dir=shard_dir, workers=1) as one:
            before = one.metrics()["counters"]
            start = time.monotonic()
            with pytest.raises(ProtocolError, match="row ids exceed"):
                one.predict_many(np.zeros(MAX_ROW_IDS + 1, dtype=np.int64))
            assert time.monotonic() - start < 1.0
            assert one.inflight == 0
            after = one.metrics()["counters"]
            for name in ("requests", "crashed_requests"):
                assert after[f"cluster.server.{name}"] == before[f"cluster.server.{name}"]
            assert one.predict_many(range(N_ROWS)) == expected.tolist()  # serves on
