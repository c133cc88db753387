"""The asyncio face of the prediction service.

``await service.predict(row_id)`` with the event loop never blocking on a
decode.  The surface is a bridge, not a tier: each call is the service's
non-blocking :meth:`~repro.serve.service.PredictionService.submit_id` /
``submit_vector`` with its own ``deadline``; a score-array hit comes back as the
value itself, a queued request as a ``concurrent.futures.Future`` that
``asyncio.wrap_future`` makes awaitable.  Batching, the score array,
the queue bound and deadline shedding are the
:class:`~repro.serve.batcher.MicroBatcher`'s, exactly as for threaded callers
and cluster workers: a service built with ``max_queue=N`` refuses a request
that finds its queue full (``await`` raises
:class:`~repro.cluster.errors.ServiceOverloaded`), and a request still queued
when its deadline passes never reaches the model (the caller gets
:class:`~repro.cluster.errors.DeadlineExceeded`, as it does when an answer
comes too late).

A :class:`~repro.cluster.watch.GenerationWatcher` (``watch_generation=``)
polls the shard manifest and hot-reopens the feature store after a
``Dataset.compact`` swap without dropping in-flight requests.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future
from pathlib import Path

from repro.cluster.errors import DeadlineExceeded
from repro.cluster.watch import GenerationWatcher
from repro.serve.checkpoint import Checkpoint
from repro.serve.service import PredictionService


class AsyncPredictionService:
    """Async facade over a :class:`~repro.serve.service.PredictionService`.

    Parameters
    ----------
    service:
        The synchronous service to wrap.  It is owned by the wrapper:
        :meth:`close` closes it.
    watch_generation:
        Poll interval in seconds for manifest-generation watching (``None``
        disables; needs a store opened from a directory).
    """

    def __init__(self, service: PredictionService, *, watch_generation: float | None = None):
        self.service = service
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
        watch_generation: float | None = None,
        **service_kwargs,
    ) -> tuple["AsyncPredictionService", Checkpoint]:
        """Build the async service straight from a checkpoint registry;
        ``service_kwargs`` (``max_queue``, ``max_batch_size``, ...) go to the service."""
        service, checkpoint = PredictionService.from_registry(
            registry,
            version,
            shard_dir=shard_dir,
            **service_kwargs,
        )
        return cls(service, watch_generation=watch_generation), checkpoint

    # -- prediction ------------------------------------------------------------

    async def predict(self, row_id: int, *, deadline: float | None = None) -> float:
        """Predict for one stored row; never blocks the event loop.

        ``deadline`` is seconds from now (``None`` = no deadline).  Raises
        :class:`ServiceOverloaded`, :class:`DeadlineExceeded`, or whatever the
        underlying prediction raised.
        """
        return await self._await(self.service.submit_id(row_id, deadline=deadline), deadline)

    async def predict_vector(self, features, *, deadline: float | None = None) -> float:
        """Predict for one raw feature vector (uncached, micro-batched)."""
        return await self._await(self.service.submit_vector(features, deadline=deadline), deadline)

    async def predict_many(
        self, row_ids, *, deadline: float | None = None, return_exceptions: bool = False
    ) -> list:
        """Concurrent :meth:`predict` over many rows, answers in order.

        Each row is its own request: under pressure some may be refused or
        shed while others succeed; ``return_exceptions=True`` reports those
        per slot instead of failing the whole gather.
        """
        return await asyncio.gather(
            *(self.predict(row_id, deadline=deadline) for row_id in row_ids),
            return_exceptions=return_exceptions,
        )

    @staticmethod
    async def _await(served, deadline: float | None):
        if not isinstance(served, Future):
            return served  # a score-array hit: nothing was queued
        try:
            return await asyncio.wait_for(asyncio.wrap_future(served), deadline)
        except DeadlineExceeded:  # shed by the batcher while queued
            raise
        except asyncio.TimeoutError:  # not the builtin TimeoutError before 3.11
            # The wait ran out first: the cancelled request is dropped at
            # dispatch if still queued, or answers unread from the handler.
            raise DeadlineExceeded("deadline passed before the prediction finished") from None

    # -- introspection ---------------------------------------------------------

    @property
    def generation(self) -> int | None:
        return self.service.generation

    def metrics(self) -> dict:
        """The wrapped service's metrics (``serve.*``, sheds included)."""
        return self.service.metrics()

    # -- lifecycle -------------------------------------------------------------

    async def close(self, drain: bool = True) -> None:
        """Stop the watcher and close the wrapped service off-loop."""
        if self._watcher is not None:
            self._watcher.stop()
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.service.close(drain=drain)
        )

    async def __aenter__(self) -> "AsyncPredictionService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


__all__ = ["AsyncPredictionService"]
