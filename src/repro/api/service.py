"""Serving through the facade: one call from registry to live service.

:func:`open_service` is the only serving entry point the CLI and examples
need: it resolves a checkpoint version, opens the shard directory the
checkpoint recorded (or an override), and wires the feature store,
micro-batcher, and score array together.  ``workers=1`` (the default)
returns an in-process :class:`~repro.serve.service.PredictionService`
(``predict_id`` / ``predict_ids`` / ``predict_vector``, non-blocking
``submit_*``); ``workers>1`` returns the multi-process
:class:`~repro.cluster.server.ClusterService` (``predict`` /
``predict_many`` / ``submit``, each taking a ``deadline``) whose N worker
processes each serve through their own ``PredictionService``.  The two share
``metrics()`` / ``close(drain=...)`` and are context managers — use ``with``
so worker threads/processes are shut down cleanly.
"""

from __future__ import annotations

from pathlib import Path

from repro.serve.checkpoint import Checkpoint, ModelRegistry
from repro.serve.service import PredictionService


def open_service(
    checkpoint_dir: Path | str,
    version: int | str = "latest",
    *,
    shard_dir: Path | str | None = None,
    max_batch_size: int = 32,
    max_wait_seconds: float = 0.0,
    workers: int = 1,
    backlog: int = 64,
    admission: str = "block",
    deadline: float | None = None,
    poll_seconds: float | None = None,
):
    """Build a prediction service from a checkpoint registry.

    ``shard_dir`` overrides the directory recorded in the checkpoint; when
    neither is available the service still answers feature-vector requests
    (but not row-id lookups).  Returns ``(service, checkpoint)`` so callers
    can print provenance (version, model, scheme) next to their stats.

    Stored rows are answered out of one score array per store, a score and
    a filled flag per row: ``n_rows × 9`` bytes per process (216 KB for
    24 000 rows, 90 MB for 10 M rows), filled on first touch — nothing at
    open — and never evicted.  For ``logreg`` / ``svm`` / ``linreg`` a
    touched shard is scored whole in the compressed domain, so every row of
    it is then answered without decoding anything; for ``ffnn`` the missing
    rows of a request are decoded and scored.

    With ``workers > 1`` the service is a
    :class:`~repro.cluster.server.ClusterService`: ``workers`` processes
    each a socket adapter over a private ``PredictionService`` on the shared
    shard directory, per-worker in-flight bounded at ``backlog``, ``admission`` policy
    (``"block"``/``"reject"``) when all queues are full, an optional
    ``deadline`` (seconds) applied to every request, and manifest-generation
    watching every ``poll_seconds``.  A shard directory is then required.
    ``max_wait_seconds`` applies only in-process (workers batch greedily).
    """
    if workers > 1:
        from repro.cluster.server import ClusterService

        cluster = ClusterService(
            checkpoint_dir,
            version,
            shard_dir=shard_dir,
            workers=workers,
            backlog=backlog,
            admission=admission,
            default_deadline=deadline,
            max_batch_size=max_batch_size,
            poll_seconds=poll_seconds,
        )
        return cluster, cluster.checkpoint
    return PredictionService.from_registry(
        checkpoint_dir,
        version,
        shard_dir=shard_dir,
        max_batch_size=max_batch_size,
        max_wait_seconds=max_wait_seconds,
    )


__all__ = ["ModelRegistry", "PredictionService", "open_service"]
