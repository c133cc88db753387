"""Tests for the micro-batcher."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve.batcher import MicroBatcher, ServiceClosed


class TestBasics:
    def test_single_request_round_trips(self):
        with MicroBatcher(lambda xs: [x * 2 for x in xs]) as batcher:
            assert batcher(21) == 42

    def test_results_map_to_their_requests(self):
        with MicroBatcher(lambda xs: [x + 1 for x in xs], max_batch_size=4) as batcher:
            futures = [batcher.submit(i) for i in range(20)]
            assert [f.result() for f in futures] == [i + 1 for i in range(20)]

    def test_batch_size_one_is_unbatched(self):
        sizes = []

        def handler(xs):
            sizes.append(len(xs))
            return xs

        with MicroBatcher(handler, max_batch_size=1) as batcher:
            futures = [batcher.submit(i) for i in range(6)]
            [f.result() for f in futures]
        assert sizes == [1] * 6

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda xs: xs, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda xs: xs, max_wait_seconds=-1)


class TestCoalescing:
    def test_concurrent_requests_share_batches(self):
        release = threading.Event()

        def handler(xs):
            release.wait(timeout=5)
            return xs

        batcher = MicroBatcher(handler, max_batch_size=16, max_wait_seconds=0.05)
        try:
            # The first request occupies the worker (blocked on the event);
            # the rest pile up and must coalesce once it is released.
            futures = [batcher.submit(i) for i in range(9)]
            release.set()
            assert [f.result(timeout=5) for f in futures] == list(range(9))
            assert batcher.stats.requests == 9
            assert batcher.stats.batches < 9
            assert batcher.stats.largest_batch > 1
        finally:
            batcher.close()

    def test_max_batch_size_respected(self):
        sizes = []
        gate = threading.Event()

        def handler(xs):
            gate.wait(timeout=5)
            sizes.append(len(xs))
            return xs

        batcher = MicroBatcher(handler, max_batch_size=3, max_wait_seconds=0.05)
        try:
            futures = [batcher.submit(i) for i in range(10)]
            gate.set()
            [f.result(timeout=5) for f in futures]
            assert max(sizes) <= 3
        finally:
            batcher.close()

    def test_mean_batch_size_stat(self):
        with MicroBatcher(lambda xs: xs, max_batch_size=8) as batcher:
            [batcher.submit(i).result() for i in range(4)]
        assert batcher.stats.mean_batch_size >= 1.0


class TestFailureAndShutdown:
    def test_handler_exception_propagates_to_callers(self):
        def handler(xs):
            raise RuntimeError("model exploded")

        with MicroBatcher(handler) as batcher:
            future = batcher.submit(1)
            with pytest.raises(RuntimeError, match="model exploded"):
                future.result(timeout=5)

    def test_wrong_output_arity_is_an_error(self):
        with MicroBatcher(lambda xs: [1, 2, 3]) as batcher:
            with pytest.raises(RuntimeError, match="outputs"):
                batcher.submit("x").result(timeout=5)

    def test_close_drains_queued_requests(self):
        slow_started = threading.Event()

        def handler(xs):
            slow_started.set()
            time.sleep(0.02)
            return xs

        batcher = MicroBatcher(handler, max_batch_size=2, max_wait_seconds=0)
        futures = [batcher.submit(i) for i in range(7)]
        slow_started.wait(timeout=5)
        batcher.close()
        assert [f.result(timeout=5) for f in futures] == list(range(7))

    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(lambda xs: xs)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(1)

    def test_close_twice_is_safe(self):
        batcher = MicroBatcher(lambda xs: xs)
        batcher.close()
        batcher.close()

    def test_submit_after_close_raises_service_closed(self):
        batcher = MicroBatcher(lambda xs: xs)
        batcher.close()
        with pytest.raises(ServiceClosed):
            batcher.submit(1)

    def test_close_without_drain_fails_queued_requests(self):
        started = threading.Event()
        release = threading.Event()

        def handler(xs):
            started.set()
            release.wait(timeout=5)
            return xs

        batcher = MicroBatcher(handler, max_batch_size=1)
        first = batcher.submit(0)
        started.wait(timeout=5)
        queued = [batcher.submit(i) for i in range(1, 5)]
        # close() joins the worker, which is parked in the handler — run it
        # from a helper thread, then release the in-flight batch.
        closer = threading.Thread(target=batcher.close, kwargs={"drain": False})
        closer.start()
        release.set()
        closer.join(timeout=5)
        assert not closer.is_alive()
        # The in-flight request was served; everything queued behind it was
        # failed explicitly — no caller left hanging.
        assert first.result(timeout=5) == 0
        for future in queued:
            with pytest.raises(ServiceClosed):
                future.result(timeout=5)

    def test_cancelled_future_does_not_kill_the_worker(self):
        release = threading.Event()

        def handler(xs):
            release.wait(timeout=5)
            return xs

        with MicroBatcher(handler, max_batch_size=1) as batcher:
            blocker = batcher.submit(0)
            cancelled = batcher.submit(1)
            survivor = batcher.submit(2)
            assert cancelled.cancel()
            release.set()
            # The worker must skip the cancelled future and keep serving.
            assert blocker.result(timeout=5) == 0
            assert survivor.result(timeout=5) == 2


class TestDispatchTimeShedding:
    """Cancelled and past-deadline requests are dropped before the handler."""

    @staticmethod
    def _blocked_batcher(respond=lambda xs: xs, **kwargs):
        entered, release, seen = threading.Event(), threading.Event(), []

        def handler(xs):
            entered.set()
            release.wait(timeout=5)
            seen.extend(xs)
            return respond(xs)

        batcher = MicroBatcher(handler, **kwargs)
        blocker = batcher.submit("blocker")
        assert entered.wait(timeout=5)  # the worker thread is parked in the handler
        return batcher, blocker, release, seen

    def test_handler_never_sees_cancelled_or_expired_requests(self):
        from repro.serve import DeadlineExceeded

        batcher, blocker, release, seen = self._blocked_batcher(max_batch_size=16)
        with batcher:
            live = [batcher.submit(f"live-{i}") for i in range(2)]
            cancelled = [batcher.submit(f"cancelled-{i}") for i in range(3)]
            expired = [batcher.submit(f"expired-{i}", deadline=0.01) for i in range(2)]
            patient = batcher.submit("patient", deadline=60.0)
            assert all(future.cancel() for future in cancelled)
            time.sleep(0.05)  # the short deadlines pass while everything queues
            release.set()
            assert blocker.result(timeout=5) == "blocker"
            assert [f.result(timeout=5) for f in live] == ["live-0", "live-1"]
            assert patient.result(timeout=5) == "patient"
            for future in expired:
                with pytest.raises(DeadlineExceeded):
                    future.result(timeout=5)
            assert seen == ["blocker", "live-0", "live-1", "patient"]
            assert batcher.stats.requests == 4
            # The worker thread survived and still serves.
            assert batcher.submit("after").result(timeout=5) == "after"

    def test_a_batch_shed_whole_skips_the_handler(self):
        batcher, blocker, release, seen = self._blocked_batcher(max_batch_size=16)
        with batcher:
            doomed = [batcher.submit(i, deadline=-1.0) for i in range(3)]
            release.set()
            assert blocker.result(timeout=5) == "blocker"
            for future in doomed:
                with pytest.raises(TimeoutError):
                    future.result(timeout=5)
            assert batcher.submit("after").result(timeout=5) == "after"
        assert seen == ["blocker", "after"]
        assert batcher.stats.batches == 2

    def test_full_queue_refuses_with_service_overloaded(self):
        from repro.serve import ServiceOverloaded

        batcher, blocker, release, _ = self._blocked_batcher(max_batch_size=1, max_queue=2)
        with batcher:
            queued = [batcher.submit(i) for i in range(2)]
            assert batcher.queue_depth == 2
            with pytest.raises(ServiceOverloaded):
                batcher.submit("one too many")
            release.set()
            assert [f.result(timeout=5) for f in queued] == [0, 1]
        with pytest.raises(ValueError):
            MicroBatcher(lambda xs: xs, max_queue=0)

    def test_an_exception_output_fails_that_request_alone(self):
        def respond(xs):
            return [ValueError(f"bad {x}") if x == -2 else x for x in xs]

        batcher, blocker, release, _ = self._blocked_batcher(respond)
        with batcher:
            futures = [batcher.submit(x) for x in (1, -2, 3)]
            release.set()
            assert futures[0].result(timeout=5) == 1 and futures[2].result(timeout=5) == 3
            with pytest.raises(ValueError, match="bad -2"):
                futures[1].result(timeout=5)


def test_serving_errors_are_defined_once():
    import repro.api
    import repro.cluster
    import repro.serve

    for name in ("DeadlineExceeded", "ServiceOverloaded", "ServiceClosed"):
        assert getattr(repro.serve, name) is getattr(repro.cluster, name)
        assert getattr(repro.serve, name) is getattr(repro.api, name)
    assert issubclass(repro.serve.DeadlineExceeded, (repro.cluster.ClusterError, TimeoutError))
    assert issubclass(repro.serve.ServiceOverloaded, repro.cluster.ClusterError)
