"""The asyncio face of the prediction service.

``await service.predict(row_id)`` with the event loop never blocking on a
decode: requests enter the one request pipeline
(:class:`~repro.serve.batcher.MicroBatcher`) through the non-blocking
:meth:`~repro.serve.service.PredictionService.submit_id` bridge and come
back as ``concurrent.futures.Future`` objects (cache hits as plain values)
that ``asyncio.wrap_future`` turns into awaitables — batching, the prediction
LRU, deadline shedding and the feature store all behave exactly as under
threaded callers and cluster workers, because they *are* the same objects.

On top sits the cluster's admission discipline, applied in-process:

* **bounded in-flight** — at most ``max_inflight`` requests may be between
  admission and completion;
* **admission policy** — when the bound is hit, ``"reject"`` raises
  :class:`~repro.cluster.errors.ServiceOverloaded` immediately (fail fast,
  let the caller back off) while ``"block"`` parks the coroutine until a
  slot frees or its deadline passes;
* **deadlines** — the remaining budget goes down the pipeline with the
  request; when it runs out the caller gets
  :class:`~repro.cluster.errors.DeadlineExceeded`.  A request still queued
  then is dropped at the batcher's dispatch step and never reaches the model;
  one whose batch is already in the handler finishes and is discarded.

A :class:`~repro.cluster.watch.GenerationWatcher` (``watch_generation=``)
polls the shard manifest and hot-reopens the feature store after a
``Dataset.compact`` swap without dropping in-flight requests.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import Future
from pathlib import Path

from repro.cluster.errors import DeadlineExceeded, ServiceClosed, ServiceOverloaded
from repro.cluster.watch import GenerationWatcher
from repro.obs import metrics as obs_metrics
from repro.serve.checkpoint import Checkpoint
from repro.serve.service import PredictionService

#: Admission policies shared by the async surface and the cluster server.
ADMISSION_POLICIES = ("block", "reject")

_ASVC_IDS = itertools.count()


class AsyncPredictionService:
    """Async facade over a :class:`~repro.serve.service.PredictionService`.

    Parameters
    ----------
    service:
        The synchronous service to wrap.  It is owned by the wrapper:
        :meth:`close` closes it.
    max_inflight:
        Bound on concurrently admitted requests (``None`` = unbounded).
    admission:
        ``"block"`` (default) waits for a slot, bounded by the deadline;
        ``"reject"`` fails immediately with :class:`ServiceOverloaded`.
    default_deadline:
        Seconds from admission attempt to answer, applied when a call does
        not pass its own ``deadline`` (``None`` = no deadline).
    watch_generation:
        Poll interval in seconds for manifest-generation watching (``None``
        disables; needs a store opened from a directory).
    """

    def __init__(
        self,
        service: PredictionService,
        *,
        max_inflight: int | None = 256,
        admission: str = "block",
        default_deadline: float | None = None,
        watch_generation: float | None = None,
    ):
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {ADMISSION_POLICIES}, got {admission!r}"
            )
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1 (or None)")
        self.service = service
        self.max_inflight = max_inflight
        self.admission = admission
        self.default_deadline = default_deadline
        self._inflight = 0
        self._slot_free = asyncio.Condition()
        self._closed = False
        self._svc_id = next(_ASVC_IDS)
        labels = {"svc": self._svc_id}
        self._m_requests = obs_metrics.counter("cluster.async.requests", **labels)
        self._m_rejected = obs_metrics.counter("cluster.async.rejected", **labels)
        self._m_shed = obs_metrics.counter("cluster.async.shed", **labels)
        self._m_inflight = obs_metrics.gauge("cluster.async.inflight", **labels)
        self._watcher: GenerationWatcher | None = None
        if watch_generation is not None:
            self._watcher = GenerationWatcher(
                service.maybe_reopen_store, poll_seconds=watch_generation
            )
            self._watcher.start()

    @classmethod
    def from_registry(
        cls,
        registry: Path | str,
        version: int | str = "latest",
        *,
        shard_dir: Path | str | None = None,
        store_kwargs: dict | None = None,
        max_inflight: int | None = 256,
        admission: str = "block",
        default_deadline: float | None = None,
        watch_generation: float | None = None,
        **service_kwargs,
    ) -> tuple["AsyncPredictionService", Checkpoint]:
        """Build the async service straight from a checkpoint registry."""
        service, checkpoint = PredictionService.from_registry(
            registry,
            version,
            shard_dir=shard_dir,
            store_kwargs=store_kwargs,
            **service_kwargs,
        )
        wrapper = cls(
            service,
            max_inflight=max_inflight,
            admission=admission,
            default_deadline=default_deadline,
            watch_generation=watch_generation,
        )
        return wrapper, checkpoint

    # -- admission -------------------------------------------------------------

    async def _admit(self, expires: float | None) -> None:
        self._m_requests.inc()
        if self._closed:
            raise ServiceClosed("async service is closed")
        if self.max_inflight is None or self._inflight < self.max_inflight:
            self._inflight += 1
            self._m_inflight.set(self._inflight)
            return
        if self.admission == "reject":
            self._m_rejected.inc()
            raise ServiceOverloaded(
                f"{self._inflight} requests in flight (max {self.max_inflight})"
            )
        async with self._slot_free:
            while self._inflight >= self.max_inflight:
                timeout = None if expires is None else expires - time.monotonic()
                if timeout is not None and timeout <= 0:
                    self._m_shed.inc()
                    raise DeadlineExceeded("deadline passed while waiting for admission")
                try:
                    await asyncio.wait_for(self._slot_free.wait(), timeout)
                except asyncio.TimeoutError:
                    self._m_shed.inc()
                    raise DeadlineExceeded(
                        "deadline passed while waiting for admission"
                    ) from None
            self._inflight += 1
            self._m_inflight.set(self._inflight)

    async def _release(self) -> None:
        self._inflight -= 1
        self._m_inflight.set(self._inflight)
        async with self._slot_free:
            # notify_all, not notify(1): a waiter whose wait_for timed out
            # right as the notification landed would swallow it, leaving a
            # live waiter parked with a free slot.
            self._slot_free.notify_all()

    # -- prediction ------------------------------------------------------------

    async def predict(self, row_id: int, *, deadline: float | None = None) -> float:
        """Predict for one stored row; never blocks the event loop.

        ``deadline`` is seconds from now (defaults to ``default_deadline``).
        Raises :class:`ServiceOverloaded`, :class:`DeadlineExceeded`, or
        whatever the underlying prediction raised.
        """
        return await self._request(self.service.submit_id, row_id, deadline)

    async def predict_vector(self, features, *, deadline: float | None = None) -> float:
        """Predict for one raw feature vector (uncached, micro-batched)."""
        return await self._request(self.service.submit_vector, features, deadline)

    async def predict_many(
        self, row_ids, *, deadline: float | None = None, return_exceptions: bool = False
    ) -> list:
        """Concurrent :meth:`predict` over many rows, answers in order.

        Each row is its own admission — under saturation some may shed while
        others succeed; ``return_exceptions=True`` reports those per-slot
        instead of failing the whole gather.
        """
        return await asyncio.gather(
            *(self.predict(row_id, deadline=deadline) for row_id in row_ids),
            return_exceptions=return_exceptions,
        )

    async def _request(self, submit, payload, deadline: float | None):
        if deadline is None:
            deadline = self.default_deadline
        expires = None if deadline is None else time.monotonic() + deadline
        await self._admit(expires)
        try:
            # What admission left of the budget (None = no deadline at all).
            remaining = None if expires is None else expires - time.monotonic()
            served = submit(payload, deadline=remaining)
            if not isinstance(served, Future):
                return served  # a prediction-cache hit: nothing was queued
            return await asyncio.wait_for(asyncio.wrap_future(served), remaining)
        except (asyncio.TimeoutError, DeadlineExceeded):
            # Either wait_for ran out (the batch is in the handler and nobody
            # will read its answer) or the batcher shed the queued request.
            self._m_shed.inc()
            raise DeadlineExceeded("deadline passed before the prediction finished") from None
        finally:
            await self._release()

    # -- introspection ---------------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def generation(self) -> int | None:
        return self.service.generation

    def metrics(self) -> dict:
        """The wrapped service's metrics plus this surface's admission counters."""
        merged = self.service.metrics()
        mine = obs_metrics.snapshot(
            "cluster.async.", labels={"svc": self._svc_id}, strip_labels=True
        )
        for kind in ("counters", "gauges", "histograms"):
            merged.setdefault(kind, {}).update(mine.get(kind, {}))
        return merged

    # -- lifecycle -------------------------------------------------------------

    async def close(self, drain: bool = True) -> None:
        """Stop the watcher and close the wrapped service off-loop."""
        self._closed = True
        if self._watcher is not None:
            self._watcher.stop()
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.service.close(drain=drain)
        )

    async def __aenter__(self) -> "AsyncPredictionService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


__all__ = ["ADMISSION_POLICIES", "AsyncPredictionService"]
