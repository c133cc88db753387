"""repro.cluster — the scale-out serving tier.

Two front-ends over the one request pipeline in :mod:`repro.serve` (neither
queues or sheds on its own behalf; only the dispatcher admits, routes and
supervises, and answers the rows its workers have scored out of its own
:class:`~repro.serve.service.ScoreArray`):

* :class:`AsyncPredictionService` — an asyncio bridge over one in-process
  :class:`~repro.serve.service.PredictionService`: ``await
  service.predict(row_id)`` submits to the service's micro-batcher, whose
  queue bound and per-call deadlines are the in-process admission and
  shedding;
* :class:`ClusterService` — N worker processes (each a socket adapter over
  its own ``PredictionService``) behind one dispatcher speaking
  length-prefixed frames (fixed binary layouts for predictions, JSON for
  control) over inherited socketpairs, with per-worker
  backpressure, crash respawn, and manifest-generation hot re-open.

Both fail *explicitly* under pressure — :class:`ServiceOverloaded`,
:class:`DeadlineExceeded`, :class:`ServiceClosed`, :class:`WorkerCrashed` —
and never leave a caller hanging.
"""

from repro.cluster.asyncio_service import AsyncPredictionService
from repro.cluster.errors import (
    ClusterError,
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
    WorkerCrashed,
)
from repro.cluster.protocol import MAX_FRAME_BYTES, ProtocolError, recv_frame, send_frame
from repro.cluster.server import ADMISSION_POLICIES, DEADLINE_GRACE_SECONDS, ClusterService
from repro.cluster.watch import DEFAULT_POLL_SECONDS, GenerationWatcher
from repro.cluster.worker import worker_main

__all__ = [
    "ADMISSION_POLICIES",
    "DEADLINE_GRACE_SECONDS",
    "DEFAULT_POLL_SECONDS",
    "MAX_FRAME_BYTES",
    "AsyncPredictionService",
    "ClusterError",
    "ClusterService",
    "DeadlineExceeded",
    "GenerationWatcher",
    "ProtocolError",
    "ServiceClosed",
    "ServiceOverloaded",
    "WorkerCrashed",
    "recv_frame",
    "send_frame",
    "worker_main",
]
