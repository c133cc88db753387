"""Queue-based micro-batching for concurrent single-row requests.

Online traffic arrives one row at a time, but everything downstream —
decompression, the compressed matvec, the Python call overhead — is cheaper
per row when amortized over a mini-batch.  The micro-batcher is the bridge:
callers submit single requests and block on a future; a single worker thread
drains the queue, coalescing up to ``max_batch_size`` requests (waiting at
most ``max_wait_seconds`` for stragglers after the first arrival), and runs
the whole batch through one handler call.  With ``max_batch_size=1`` it
degenerates to an unbatched request loop, which the serving benchmark uses
as the fair baseline.

This is the *only* request pipeline — threads, the asyncio surface and the
cluster's workers all submit here — so what every front-end needs under
pressure lives here once: a bounded queue (:class:`ServiceOverloaded`) and
dispatch-time shedding (a request cancelled or past its deadline while queued
never reaches the handler; the latter fails with :class:`DeadlineExceeded`).
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import Future
from dataclasses import dataclass

from repro.obs import metrics as obs_metrics

#: Shutdown marker pushed by :meth:`MicroBatcher.close`.
_SENTINEL = object()


class ServiceClosed(RuntimeError):
    """The service/batcher was closed; the request was not (or will not be) served.

    Raised by :meth:`MicroBatcher.submit` after :meth:`MicroBatcher.close`,
    and set on every still-queued future when a batcher is closed with
    ``drain=False`` — callers blocked on ``future.result()`` get this error
    instead of hanging on a future nobody will ever resolve.
    """


class ClusterError(RuntimeError):
    """Base class for serving-tier failures (in-process and multi-process)."""


class ServiceOverloaded(ClusterError):
    """The queue is full (at the cluster's front door: every worker's is, and
    the admission policy is ``"reject"``).

    The 503 of this stack: the request was never admitted, so retrying
    later (or against another replica) is always safe.
    """


class DeadlineExceeded(ClusterError, TimeoutError):
    """The request's deadline passed before a result was produced.

    Raised by admission (queues stayed full under the ``"block"`` policy), by
    the batcher's dispatch step (the request is shed instead of decoded for
    nobody), and by completion (the answer would have arrived too late).
    """


@dataclass
class MicroBatcherStats:
    """Counters accumulated by a :class:`MicroBatcher`."""

    requests: int = 0
    batches: int = 0
    largest_batch: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


class MicroBatcher:
    """Coalesce concurrent requests into handler calls over mini-batches.

    Parameters
    ----------
    handler:
        ``handler(inputs) -> outputs`` where ``outputs`` has one entry per
        input, in order; an entry that is an exception instance fails that
        request alone.  Called from the worker thread only, so it needs no
        locking of its own.
    max_batch_size:
        Upper bound on requests per handler call (≥ 1).
    max_wait_seconds:
        How long the worker lingers for stragglers after the first request of
        a batch arrives.  The default of ``0`` dispatches as soon as the queue
        momentarily empties — under concurrent load batches still form
        naturally (requests pile up while the previous batch is in the
        handler), and no request ever waits idle.  A positive linger trades
        latency for bigger batches, which only pays when one handler call is
        expensive relative to the linger (cold decodes, big models).
    max_queue:
        Bound on queued requests (``None`` = unbounded); a submit that finds
        the queue full raises :class:`ServiceOverloaded`.
    metrics_labels:
        When given, the batcher also feeds process-global metrics with these
        labels: the histograms ``serve.batch.size`` (one observation per
        dispatched batch) and ``serve.queue.wait_seconds`` (the *longest*
        submit-to-dispatch wait in each batch — one observation per batch,
        not per request, keeping the hot-path overhead bounded while still
        capturing the tail a latency SLO cares about), and the counter
        ``serve.shed`` with ``reason=overloaded`` (a submit refused at a full
        queue) or ``reason=deadline`` (a request dropped at dispatch because
        it expired while queued) — each shed counted once, where it happens,
        whichever front-end submitted it.
    """

    def __init__(
        self,
        handler: Callable[[list], Sequence],
        *,
        max_batch_size: int = 32,
        max_wait_seconds: float = 0.0,
        max_queue: int | None = None,
        metrics_labels: dict | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be non-negative")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be at least 1 (or None)")
        self.handler = handler
        self.max_batch_size = max_batch_size
        self.max_wait_seconds = max_wait_seconds
        self.max_queue = max_queue
        self.stats = MicroBatcherStats()
        self._batch_size_hist = self._wait_hist = self._shed = None
        if metrics_labels is not None:
            self._batch_size_hist = obs_metrics.histogram(
                "serve.batch.size", **metrics_labels
            )
            self._wait_hist = obs_metrics.histogram(
                "serve.queue.wait_seconds", **metrics_labels
            )
            self._shed = {
                reason: obs_metrics.counter("serve.shed", reason=reason, **metrics_labels)
                for reason in ("deadline", "overloaded")
            }
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._drain_on_close = True
        # Makes "closed-check + put" atomic against close(): without it a
        # submit could slip its request in after the shutdown sentinel and
        # block its caller on a future nobody will ever resolve.
        self._submit_lock = threading.Lock()
        self._worker = threading.Thread(target=self._run, name="repro-microbatcher", daemon=True)
        self._worker.start()

    # -- client side ----------------------------------------------------------

    def submit(self, request, *, deadline: float | None = None) -> Future:
        """Enqueue one request; the future resolves to its handler output.

        ``deadline`` is a budget in seconds from now (monotonic clock): a
        request still queued when it runs out fails with :class:`DeadlineExceeded`.
        """
        future: Future = Future()
        expires = None if deadline is None else time.monotonic() + deadline
        with self._submit_lock:
            if self._closed:
                raise ServiceClosed("batcher is closed")
            if self.max_queue is not None and self._queue.qsize() >= self.max_queue:
                if self._shed is not None:
                    self._shed["overloaded"].inc()
                raise ServiceOverloaded(f"request queue full ({self.max_queue})")
            self._queue.put((request, future, time.perf_counter(), expires))
        return future

    @property
    def queue_depth(self) -> int:
        """Requests waiting for the worker thread right now."""
        return self._queue.qsize()

    def __call__(self, request):
        """Blocking convenience: submit and wait for the result."""
        return self.submit(request).result()

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and join the worker.

        With ``drain=True`` (the default) everything queued before the close
        is still served, in batches, before the worker exits.  With
        ``drain=False`` queued requests are *failed* instead: each pending
        future gets :class:`ServiceClosed`, so blocked callers return
        immediately with an explicit error rather than waiting out a drain
        (or, in the failure modes this guards against, forever).  Either
        way no caller is left hanging, and a second close is a no-op.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            self._drain_on_close = drain
            self._queue.put(_SENTINEL)
        self._worker.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker side ----------------------------------------------------------

    def _run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # pragma: no cover - belt and braces
            # The loop is written not to raise, but if it ever does the
            # worker must not die silently: every still-queued caller gets
            # the error instead of blocking forever on an orphaned future.
            self._fail_queued(exc)
            raise

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                # close() enqueues this under the submit lock after flipping
                # `_closed`, so nothing can be queued behind it: the backlog
                # was served (or, without drain, failed) batch by batch.
                return
            batch = [item]
            deadline = time.monotonic() + self.max_wait_seconds
            while len(batch) < self.max_batch_size:
                remaining = deadline - time.monotonic()
                try:
                    if remaining > 0:
                        nxt = self._queue.get(timeout=remaining)
                    else:
                        nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _SENTINEL:
                    self._dispatch(batch)
                    return
                batch.append(nxt)
            self._dispatch(batch)

    def _fail_queued(self, exc: BaseException) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _SENTINEL:
                continue
            fail_future(item[1], exc)

    def _dispatch(self, batch: list) -> None:
        # A no-drain close is in effect: the queue is FIFO, so requests
        # enqueued before the sentinel would otherwise still be served.
        # Fail them instead — close(drain=False) promises exactly that.
        closed = self._closed and not self._drain_on_close
        # Shed before the handler runs: serving a request nobody waits on
        # burns decode time, which under saturation is what melts a queue
        # down.  A live future is marked running here, so its caller can no
        # longer cancel it and it can be resolved directly afterwards.
        now = time.monotonic()
        inputs, futures = [], []
        for request, future, _, expires in batch:
            if closed:
                fail_future(future, ServiceClosed("batcher closed before the request ran"))
            elif expires is not None and now > expires:
                fail_future(future, DeadlineExceeded("deadline passed in queue"))
                if self._shed is not None:
                    self._shed["deadline"].inc()
            elif future.set_running_or_notify_cancel():
                inputs.append(request)
                futures.append(future)
        if not inputs:
            return
        self.stats.requests += len(inputs)
        self.stats.batches += 1
        self.stats.largest_batch = max(self.stats.largest_batch, len(inputs))
        if self._batch_size_hist is not None:
            self._batch_size_hist.observe(len(inputs))
            # The batch's first entry queued earliest, so its wait is the max.
            self._wait_hist.observe(time.perf_counter() - batch[0][2])
        try:
            outputs = self.handler(inputs)
            if len(outputs) != len(inputs):
                raise RuntimeError(
                    f"handler returned {len(outputs)} outputs for {len(inputs)} requests"
                )
        except BaseException as exc:  # propagate to every blocked caller
            for future in futures:
                future.set_exception(exc)
            return
        for future, output in zip(futures, outputs):
            if isinstance(output, BaseException):
                future.set_exception(output)
            else:
                future.set_result(output)


def fail_future(future: Future, exception: BaseException) -> None:
    """Fail a still-pending future without ever killing the calling thread.

    A caller may have cancelled its future (the asyncio bridge does on
    deadline), in which case ``set_exception`` raises ``InvalidStateError``
    — before this guard that exception escaped ``_dispatch``, killed the
    worker, and silently abandoned every queued request behind the
    cancelled one.
    """
    if future.set_running_or_notify_cancel():
        future.set_exception(exception)
