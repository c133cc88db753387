"""Errors the serving tier raises instead of hanging.

The cluster's contract under pressure is *explicit failure*: a request that
cannot be served inside its constraints gets one of these immediately,
never a silent stall.  All of them subclass :class:`RuntimeError` (and
:class:`DeadlineExceeded` also :class:`TimeoutError`) so existing
``except RuntimeError`` call sites keep working.

:class:`WorkerCrashed` is the only one that needs a second process.  The rest
are raised by the one request pipeline, defined in :mod:`repro.serve.batcher`,
and re-exported here so cluster users import every serving error from one place.
"""

from __future__ import annotations

from repro.serve.batcher import (
    ClusterError,
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
)


class WorkerCrashed(ClusterError):
    """The worker process holding this request died before answering.

    In-flight requests on a crashed worker fail with this error while the
    dispatcher respawns the worker; the request itself was *not* retried
    (prediction is idempotent, so callers may simply resubmit).
    """


__all__ = [
    "ClusterError",
    "DeadlineExceeded",
    "ServiceClosed",
    "ServiceOverloaded",
    "WorkerCrashed",
]
