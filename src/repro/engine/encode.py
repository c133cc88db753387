"""Multi-worker shard encode pipeline with per-batch scheme selection.

Encoding is the expensive, embarrassingly-parallel half of the out-of-core
story: every mini-batch is compressed exactly once (shuffle-once discipline)
and the per-batch ``TOCMatrix.encode`` calls share nothing, so they fan out
cleanly over a process pool (:func:`fan_out`: in this process when one
worker is asked for or only one CPU is usable, a ``ProcessPoolExecutor``
otherwise — Algorithm 1 holds the GIL, so threads would gain nothing).
Workers return serialised payload bytes (via ``to_bytes``), which is both
what gets written to the shard files and the only thing that has to cross
the process boundary.

Scheme selection is per batch.  Besides a fixed scheme name, callers may
pass :data:`AUTO_SCHEME` (``"auto"``) — the paper's Section 5.1 advice made
operational: each worker runs the scheme advisor on a row sample of *its*
batch and compresses with the winner, so a mixed-density dataset ends up
with TOC on its sparse shards and DEN (or whatever wins) on its dense ones.
The advisor ranks by the measured cost of a workload (``"train"`` unless
told otherwise); :func:`advice_calibration` resolves the measurements once
per dataset directory, and they travel to pool workers pickled inside the
tasks.  The chosen name travels back in :attr:`EncodedBatch.scheme` and is
recorded per shard in the manifest.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.calibration import DEFAULT_WORKLOAD, check_workload, ensure_calibration
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Scheme name that triggers per-batch advisor-driven selection.
AUTO_SCHEME = "auto"

#: How many rows of a batch the advisor samples in ``auto`` mode.  The first
#: rows are used — batches come out of a shuffled split, so a deterministic
#: prefix is already a random sample, and determinism keeps in-process and
#: pool encodes byte-identical.
AUTO_SAMPLE_ROWS = 100


@dataclass(frozen=True)
class EncodedBatch:
    """One mini-batch after compression: id, payload bytes, scheme, shape.

    ``seconds`` is the worker-side wall time of the compress — it rides in
    the (picklable) result so per-batch timings survive the process-pool
    boundary and feed the ``engine.encode.batch_seconds`` histogram in the
    parent.
    """

    batch_id: int
    payload: bytes
    n_rows: int
    n_cols: int
    scheme: str = "TOC"
    seconds: float = 0.0

    @property
    def nbytes(self) -> int:
        return len(self.payload)


def advice_calibration(directory):
    """The measured kernel costs ``"auto"`` advice ranks by for one dataset.

    The engine's one resolution site: encoding (create and append) and
    compaction both call it with the dataset directory, so they advise from
    the same measurements — computed at most once per machine, persisted as
    ``calibration.json`` next to the manifest, reloaded by every later pass
    — and a freshly advised directory compacts to a no-op.
    """
    return ensure_calibration(directory)


def advise_scheme(sample_rows: np.ndarray, workload: str = DEFAULT_WORKLOAD,
                  calibration=None) -> str:
    """The Section 5.1 rule: the advisor's winner for a dense row sample.

    This one function is the whole encode-time / compact-time selection
    policy — ``scheme="auto"`` encoding and
    :func:`repro.engine.compact.reencode_drifted` both call it, so the two
    can never diverge.  The winner minimises the measured cost of ``workload``
    under ``calibration`` (default: this process's).
    """
    from repro.core.advisor import recommend_scheme

    return recommend_scheme(
        sample_rows, workload=workload, calibration=calibration
    ).best.name


def resolve_scheme_name(scheme_name: str, features: np.ndarray,
                        workload: str = DEFAULT_WORKLOAD, calibration=None) -> str:
    """Map :data:`AUTO_SCHEME` to a concrete scheme for one batch.

    Fixed names pass through untouched; ``"auto"`` runs the advisor on a
    deterministic row prefix of ``features`` (batches come out of a shuffled
    split, so the prefix is already a random sample) and returns the winner.
    """
    if scheme_name != AUTO_SCHEME:
        return scheme_name
    return advise_scheme(
        features[: min(features.shape[0], AUTO_SAMPLE_ROWS)],
        workload=workload,
        calibration=calibration,
    )


def _encode_one(task: tuple) -> EncodedBatch:
    """Worker body: compress one batch with the named (or advised) scheme.

    Top-level function so it pickles cleanly into ``ProcessPoolExecutor``
    workers; the scheme is looked up by name inside the worker for the same
    reason (scheme objects need not be picklable — the calibration, a plain
    frozen dataclass of dicts, pickles fine and rides along in the task).
    """
    from repro.compression.registry import get_scheme

    batch_id, features, scheme_name, workload, calibration = task
    start = time.perf_counter()
    resolved = resolve_scheme_name(
        scheme_name, features, workload=workload, calibration=calibration
    )
    with obs_trace.span("engine.encode.batch", shard=batch_id, scheme=resolved):
        compressed = get_scheme(resolved).compress(features)
        payload = compressed.to_bytes()
    return EncodedBatch(
        batch_id=batch_id,
        payload=payload,
        n_rows=int(features.shape[0]),
        n_cols=int(features.shape[1]),
        scheme=resolved,
        seconds=time.perf_counter() - start,
    )


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one.

    ``os.cpu_count()`` counts the machine's; a process pinned to one of them
    (a container, ``taskset``, ``bench/run.py``) gains nothing from a pool.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(workers: int | None = None) -> int:
    """Default worker count: one per usable CPU (at least 1)."""
    if workers is not None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        return workers
    return usable_cpus()


def fan_out(fn: Callable, tasks: list, workers: int | None = None) -> tuple[list, str]:
    """Run ``fn`` over ``tasks`` in order; return the results and the kind that ran.

    The one place the encode pipeline chooses where work runs.  The pool
    never gets more workers than there are tasks, so it runs in this process
    (``"serial"``) when one worker is asked for, there is one task, or this
    process may run on only one CPU; across a ``ProcessPoolExecutor``
    (``"process"``) otherwise.  ``fn`` must be a top-level function so it
    pickles.
    """
    n_workers = min(resolve_workers(workers), len(tasks))
    if n_workers <= 1 or usable_cpus() == 1:
        return [fn(task) for task in tasks], "serial"
    chunksize = max(1, len(tasks) // (4 * n_workers))
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize)), "process"


def encode_batches(
    feature_batches: list[np.ndarray],
    scheme_name: str | Sequence[str] = "TOC",
    *,
    workers: int | None = None,
    workload: str = DEFAULT_WORKLOAD,
    directory=None,
) -> tuple[list[EncodedBatch], str]:
    """Compress every batch, fanning out over ``workers`` (see :func:`fan_out`).

    ``scheme_name`` is a single name applied to every batch (including
    :data:`AUTO_SCHEME` for per-batch advisor selection) or a sequence naming
    the scheme for each batch individually.  Returns the encoded batches in
    batch order, each carrying the scheme actually used, and the kind that
    ran them (``"serial"`` or ``"process"``).

    ``"auto"`` batches are advised for ``workload`` from the calibration of
    ``directory`` (:func:`advice_calibration`; ``None``: this process's),
    resolved once here — never inside pool workers, which would each re-run
    the timing pass — and pickled into the tasks.
    """
    check_workload(workload)
    if isinstance(scheme_name, str):
        per_batch = [scheme_name] * len(feature_batches)
    else:
        per_batch = list(scheme_name)
        if len(per_batch) != len(feature_batches):
            raise ValueError(
                f"got {len(per_batch)} scheme names for {len(feature_batches)} batches"
            )
    if not per_batch:
        raise ValueError("at least one mini-batch is required")
    calibration = (
        advice_calibration(directory) if AUTO_SCHEME in per_batch else None
    )
    tasks = [
        (batch_id, np.asarray(features, dtype=np.float64), name, workload, calibration)
        for batch_id, (features, name) in enumerate(zip(feature_batches, per_batch))
    ]

    with obs_trace.span("engine.encode", n_batches=len(tasks)) as labels:
        encoded, kind = fan_out(_encode_one, tasks, workers)
        labels["executor"] = kind
    # Worker-side timings feed the histogram here in the parent, so the
    # numbers survive the process-pool boundary (workers have their own,
    # unobserved, registry).
    batch_hist = obs_metrics.histogram("engine.encode.batch_seconds")
    obs_metrics.counter("engine.encode.batches").inc(len(encoded))
    for enc in encoded:
        batch_hist.observe(enc.seconds)
    return encoded, kind
