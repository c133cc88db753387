"""The multi-process serving tier: one dispatcher, N worker processes.

:class:`ClusterService` spawns ``workers`` independent processes (spawn
context — the parent runs threads, so fork is off the table), each running
:func:`repro.cluster.worker.worker_main` over the *same* checkpoint
registry and shard directory, and speaks length-prefixed JSON frames to
each over a private Unix socket.  Python's GIL serialises decode work
inside one process; N processes decode on N cores.

The dispatcher is deliberately thin — it holds no model and no shard
bytes.  Per request it does:

* **admission** — find the least-loaded live worker with queue room
  (in-flight per worker is bounded by ``backlog``).  When every worker is
  full the configured policy decides: ``"reject"`` raises
  :class:`~repro.cluster.errors.ServiceOverloaded` immediately, ``"block"``
  waits for a slot but never past the request's deadline
  (:class:`~repro.cluster.errors.DeadlineExceeded`);
* **routing** — one frame out, the reply routed back by request id to the
  caller's ``concurrent.futures.Future`` (so the sync ``predict`` and an
  ``asyncio.wrap_future`` caller share one code path);
* **supervision** — a worker that dies mid-request fails that worker's
  in-flight futures with :class:`~repro.cluster.errors.WorkerCrashed`
  (prediction is idempotent; callers may resubmit) and is respawned from
  the same config, so capacity heals without a restart.

The dispatcher runs no request pipeline: each worker serves through its own
:class:`~repro.serve.service.PredictionService`.  Deadlines cross the process
boundary as a *remaining budget* in seconds that each side adds to its own
``time.monotonic()``, so workers shed queued work whose caller has given up
and a wall-clock step can neither shed nor immortalise a request.
"""

from __future__ import annotations

import itertools
import multiprocessing
import shutil
import socket
import tempfile
import threading
import time
from concurrent.futures import Future
from pathlib import Path

from repro.cluster.asyncio_service import ADMISSION_POLICIES
from repro.cluster.errors import (
    ClusterError,
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
    WorkerCrashed,
)
from repro.cluster.protocol import ProtocolError, recv_frame, send_frame
from repro.cluster.worker import ERROR_CODES, worker_main
from repro.obs import metrics as obs_metrics
from repro.serve.batcher import fail_future
from repro.serve.checkpoint import Checkpoint, ModelRegistry

#: Seconds the dispatcher waits for a fresh worker's socket to come up
#: (covers a cold python + numpy import on a loaded box).
SPAWN_CONNECT_TIMEOUT = 60.0

#: Extra seconds past a request's deadline before the dispatcher stops
#: waiting for the worker's (late) explicit answer and sheds client-side.
DEADLINE_GRACE_SECONDS = 2.0

_CLUSTER_IDS = itertools.count()

_ERROR_CLASSES = {code: exc_cls for exc_cls, code in ERROR_CODES.items()}


class _WorkerHandle:
    """Parent-side state for one worker process."""

    __slots__ = ("index", "config", "process", "conn", "pending", "alive", "send_lock")

    def __init__(self, index: int, config: dict):
        self.index = index
        self.config = config
        self.process = None
        self.conn: socket.socket | None = None
        #: request id -> (future, reply kind); mutated under the cluster lock.
        self.pending: dict[int, tuple[Future, str]] = {}
        self.alive = False
        self.send_lock = threading.Lock()


class ClusterService:
    """N worker processes behind one admission-controlled front door.

    Parameters
    ----------
    registry:
        Checkpoint registry directory (or :class:`ModelRegistry`); every
        worker loads the same resolved version.
    version:
        Checkpoint version to serve (``"latest"`` by default).
    shard_dir:
        Shard directory workers read features from; defaults to the one
        recorded in the checkpoint.  Required (workers serve stored rows).
    workers:
        Number of worker processes (>= 1).
    backlog:
        Max in-flight requests *per worker*; the cluster's total capacity
        is ``workers * backlog``.
    admission:
        ``"block"`` (default) or ``"reject"`` — what happens when every
        worker is at its backlog.
    default_deadline:
        Seconds-from-submit deadline applied when a call passes none.
    max_batch_size / cache_size / store_kwargs:
        Forwarded to each worker's private service stack.
    poll_seconds:
        Worker manifest-generation poll interval (hot re-open after
        ``Dataset.compact``).
    """

    def __init__(
        self,
        registry,
        version: int | str = "latest",
        *,
        shard_dir: Path | str | None = None,
        workers: int = 2,
        backlog: int = 64,
        admission: str = "block",
        default_deadline: float | None = None,
        max_batch_size: int = 32,
        cache_size: int = 256,
        store_kwargs: dict | None = None,
        poll_seconds: float | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if backlog < 1:
            raise ValueError("backlog must be at least 1")
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {ADMISSION_POLICIES}, got {admission!r}"
            )
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.checkpoint: Checkpoint = registry.load(version)
        directory = Path(shard_dir) if shard_dir is not None else self.checkpoint.shard_dir
        if directory is None:
            raise ValueError(
                "cluster serving needs a shard directory (pass shard_dir= or "
                "train the checkpoint with one recorded)"
            )
        self.shard_dir = directory
        self.n_workers = workers
        self.backlog = backlog
        self.admission = admission
        self.default_deadline = default_deadline
        self._cluster_id = next(_CLUSTER_IDS)
        self._socket_dir = Path(tempfile.mkdtemp(prefix="repro-cluster-"))
        self._ctx = multiprocessing.get_context("spawn")
        self._req_ids = itertools.count()
        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self._closing = False

        labels = {"svc": self._cluster_id}
        self._m_requests = obs_metrics.counter("cluster.server.requests", **labels)
        self._m_rejected = obs_metrics.counter("cluster.server.rejected", **labels)
        self._m_shed = obs_metrics.counter("cluster.server.shed", **labels)
        self._m_crashed = obs_metrics.counter("cluster.server.crashed_requests", **labels)
        self._m_respawns = obs_metrics.counter("cluster.server.respawns", **labels)
        self._m_inflight = obs_metrics.gauge("cluster.server.inflight", **labels)

        self._handles = [
            _WorkerHandle(
                index,
                {
                    "worker_index": index,
                    "socket_path": str(self._socket_dir / f"worker-{index}.sock"),
                    "checkpoint_dir": str(registry.root),
                    "version": self.checkpoint.version,
                    "shard_dir": str(directory),
                    "backlog": backlog,
                    "max_batch_size": max_batch_size,
                    "cache_size": cache_size,
                    "store_kwargs": store_kwargs,
                    "poll_seconds": poll_seconds,
                },
            )
            for index in range(workers)
        ]
        try:
            for handle in self._handles:
                self._start_worker(handle)
        except BaseException:
            self.close(drain=False)
            raise

    # -- worker lifecycle ------------------------------------------------------

    def _start_worker(self, handle: _WorkerHandle) -> None:
        handle.process = self._ctx.Process(
            target=worker_main,
            args=(handle.config,),
            name=f"repro-cluster-{self._cluster_id}-worker-{handle.index}",
            daemon=True,
        )
        handle.process.start()
        handle.conn = self._connect(handle)
        handle.alive = True
        threading.Thread(
            target=self._reader_loop,
            args=(handle,),
            name=f"repro-cluster-{self._cluster_id}-reader-{handle.index}",
            daemon=True,
        ).start()

    def _connect(self, handle: _WorkerHandle) -> socket.socket:
        """Retry until the worker's listener is up (it binds before accept)."""
        deadline = time.monotonic() + SPAWN_CONNECT_TIMEOUT
        path = handle.config["socket_path"]
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                return sock
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                if not handle.process.is_alive():
                    raise WorkerCrashed(
                        f"worker {handle.index} exited during startup "
                        f"(exitcode {handle.process.exitcode})"
                    ) from None
                if time.monotonic() > deadline:
                    raise WorkerCrashed(
                        f"worker {handle.index} did not come up within "
                        f"{SPAWN_CONNECT_TIMEOUT:.0f}s"
                    ) from None
                time.sleep(0.02)

    def _reader_loop(self, handle: _WorkerHandle) -> None:
        """Route every reply frame from one worker back to its future."""
        while True:
            try:
                frame = recv_frame(handle.conn)
            except (ProtocolError, OSError):
                frame = None
            if frame is None:
                break
            with self._lock:
                entry = handle.pending.pop(frame.get("id"), None)
                self._m_inflight.set(self._total_inflight())
                self._slot_free.notify_all()
            if entry is None:
                continue  # late reply for a request the caller gave up on
            self._resolve(entry, frame)
        self._on_worker_gone(handle)

    def _resolve(self, entry: tuple[Future, str], frame: dict) -> None:
        future, kind = entry
        if not future.set_running_or_notify_cancel():
            return
        if frame.get("ok"):
            future.set_result(frame if kind == "frame" else frame.get(kind))
        else:
            code = frame.get("error")
            exc_cls = _ERROR_CLASSES.get(code, ClusterError)
            message = frame.get("message", "")
            if exc_cls is ClusterError and code:
                message = f"worker error ({code}): {message}"
            future.set_exception(exc_cls(message))

    def _on_worker_gone(self, handle: _WorkerHandle) -> None:
        """EOF from a worker: fail its in-flight work, respawn unless closing."""
        with self._lock:
            was_alive = handle.alive
            handle.alive = False
            orphans = list(handle.pending.values())
            handle.pending.clear()
            self._m_inflight.set(self._total_inflight())
            self._slot_free.notify_all()
        for future, _ in orphans:
            self._m_crashed.inc()
            fail_future(future, WorkerCrashed(f"worker {handle.index} died before answering"))
        if handle.conn is not None:
            handle.conn.close()
        if self._closing or not was_alive:
            return
        handle.process.join(timeout=5.0)
        self._m_respawns.inc()
        self._start_worker(handle)

    # -- admission + routing ---------------------------------------------------

    def _total_inflight(self) -> int:
        return sum(len(h.pending) for h in self._handles)

    def _pick_worker(self) -> _WorkerHandle | None:
        """Least-loaded live worker with queue room, or ``None`` if all full."""
        best = None
        for handle in self._handles:
            if not handle.alive or len(handle.pending) >= self.backlog:
                continue
            if best is None or len(handle.pending) < len(best.pending):
                best = handle
        return best

    def _admit(self, expires: float | None, kind: str) -> tuple:
        """Reserve a slot on a worker: (handle, request id, future, seconds left)."""
        self._m_requests.inc()
        with self._slot_free:
            while True:
                if self._closing:
                    raise ServiceClosed("cluster service is closed")
                timeout = None if expires is None else expires - time.monotonic()
                if timeout is not None and timeout <= 0:
                    self._m_shed.inc()
                    raise DeadlineExceeded("deadline passed before admission")
                handle = self._pick_worker()
                if handle is not None:
                    req_id = next(self._req_ids)
                    future: Future = Future()
                    handle.pending[req_id] = (future, kind)
                    self._m_inflight.set(self._total_inflight())
                    return handle, req_id, future, timeout
                if not any(h.alive for h in self._handles):
                    raise WorkerCrashed("no live workers")
                if self.admission == "reject":
                    self._m_rejected.inc()
                    raise ServiceOverloaded(
                        f"{self._total_inflight()} requests in flight "
                        f"({self.n_workers} workers x backlog {self.backlog})"
                    )
                self._slot_free.wait(timeout)

    def _abandon(self, handle: _WorkerHandle, req_id: int) -> None:
        with self._lock:
            handle.pending.pop(req_id, None)
            self._m_inflight.set(self._total_inflight())
            self._slot_free.notify_all()

    def _send(self, handle: _WorkerHandle, req_id: int, message: dict) -> None:
        try:
            with handle.send_lock:
                send_frame(handle.conn, message)
        except (OSError, ProtocolError) as exc:
            self._abandon(handle, req_id)
            raise WorkerCrashed(
                f"could not reach worker {handle.index}: {exc}"
            ) from exc

    def submit(self, row_id: int, *, deadline: float | None = None) -> Future:
        """Route one row-id prediction; non-blocking, returns a future.

        ``asyncio`` callers can ``await asyncio.wrap_future(cluster.submit(r))``.
        Raises admission errors (:class:`ServiceOverloaded`,
        :class:`DeadlineExceeded`, :class:`ServiceClosed`) synchronously; the
        future fails with worker-side errors.
        """
        return self._route("value", {"op": "predict", "row_id": int(row_id)}, deadline)[0]

    def predict(self, row_id: int, *, deadline: float | None = None) -> float:
        """Predict for one stored row on some worker; explicit errors, no hangs."""
        frame = {"op": "predict", "row_id": int(row_id)}
        return self._await(*self._route("value", frame, deadline))

    def predict_many(self, row_ids, *, deadline: float | None = None) -> list[float]:
        """Bulk predict: one frame to one worker, one bulk store+model call."""
        frame = {"op": "predict_many", "row_ids": [int(r) for r in row_ids]}
        return self._await(*self._route("values", frame, deadline))

    def _route(self, kind: str, frame: dict, deadline) -> tuple[Future, float | None]:
        """Admit one request and send its frame (with the budget still
        remaining after admission); returns (future, monotonic expiry)."""
        if deadline is None:
            deadline = self.default_deadline
        expires = None if deadline is None else time.monotonic() + deadline
        handle, req_id, future, remaining = self._admit(expires, kind)
        frame.update(id=req_id, deadline=remaining)
        self._send(handle, req_id, frame)
        return future, expires

    def _await(self, future: Future, expires: float | None):
        """Block for the answer, but never past deadline + grace.

        Workers shed past-deadline work with an explicit reply, so the
        timeout here only fires if a worker is wedged mid-computation; the
        request's slot frees when its (late) reply or crash arrives.
        """
        timeout = None
        if expires is not None:
            timeout = max(0.0, expires - time.monotonic()) + DEADLINE_GRACE_SECONDS
        try:
            return future.result(timeout=timeout)
        except TimeoutError as exc:
            if isinstance(exc, DeadlineExceeded):
                raise
            self._m_shed.inc()
            raise DeadlineExceeded("deadline passed before the worker answered") from None

    # -- control plane ---------------------------------------------------------

    def _control(self, handle: _WorkerHandle, op: str, timeout: float = 10.0) -> dict:
        """Send a control frame and wait for its reply frame."""
        with self._lock:
            if self._closing:
                raise ServiceClosed("cluster service is closed")
            if not handle.alive:
                raise WorkerCrashed(f"worker {handle.index} is down")
            req_id = next(self._req_ids)
            future: Future = Future()
            handle.pending[req_id] = (future, "frame")
        self._send(handle, req_id, {"op": op, "id": req_id})
        try:
            return future.result(timeout=timeout)
        except TimeoutError:
            self._abandon(handle, req_id)
            raise WorkerCrashed(
                f"worker {handle.index} did not answer {op!r} within {timeout}s"
            ) from None

    def ping(self) -> list[dict]:
        """Health-check every live worker; one status dict per worker."""
        return [self._control(handle, "ping") for handle in self._handles if handle.alive]

    def generations(self) -> list[int | None]:
        """Each live worker's current manifest generation (via ping)."""
        return [status.get("generation") for status in self.ping()]

    def crash_worker(self, index: int) -> None:
        """Fault injection: make worker ``index`` exit hard (tests the respawn)."""
        handle = self._handles[index]
        with self._lock:
            if not handle.alive:
                raise WorkerCrashed(f"worker {index} is already down")
            req_id = next(self._req_ids)
        self._send(handle, req_id, {"op": "crash", "id": req_id})

    @property
    def alive_workers(self) -> int:
        return sum(1 for h in self._handles if h.alive)

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._total_inflight()

    def metrics(self) -> dict:
        """Dispatcher counters plus every worker's metrics (``worker=i`` keys).

        Top-level ``counters``/``gauges``/``histograms`` hold the
        dispatcher's own ``cluster.server.*`` series and each worker's
        ``cluster.worker.*`` series (label-suffixed, e.g.
        ``cluster.worker.queue_depth{worker=1}``); ``workers`` maps worker
        index to its full per-process snapshot.
        """
        out = obs_metrics.snapshot(
            "cluster.server.", labels={"svc": self._cluster_id}, strip_labels=True
        )
        out["workers"] = {}
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                frame = self._control(handle, "metrics")
            except (WorkerCrashed, ServiceClosed):
                continue
            worker_metrics = frame.get("metrics", {})
            out["workers"][str(handle.index)] = worker_metrics
            for kind in ("counters", "gauges", "histograms"):
                for key, value in worker_metrics.get(kind, {}).items():
                    if key.startswith("cluster.worker."):
                        out[kind][key] = value
        return out

    # -- lifecycle -------------------------------------------------------------

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the cluster: no new work, drain (or fail) in-flight, reap workers.

        ``drain=True`` sends every worker a shutdown frame; workers finish
        everything already queued, ack, and exit — callers holding futures
        get real answers.  ``drain=False`` fails in-flight futures with
        :class:`ServiceClosed` and terminates the processes.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._slot_free.notify_all()
        acks = []
        for handle in self._handles:
            if not handle.alive or handle.conn is None:
                continue
            if drain:
                with self._lock:
                    req_id = next(self._req_ids)
                    future: Future = Future()
                    handle.pending[req_id] = (future, "frame")
                try:
                    with handle.send_lock:
                        send_frame(handle.conn, {"op": "shutdown", "id": req_id})
                    acks.append(future)
                except OSError:
                    self._abandon(handle, req_id)
            else:
                with self._lock:
                    orphans = list(handle.pending.values())
                    handle.pending.clear()
                for future, _ in orphans:
                    fail_future(future, ServiceClosed("cluster service is closed"))
        for future in acks:
            try:
                future.result(timeout=timeout)
            except Exception:
                pass  # worker died while draining; reaped below either way
        for handle in self._handles:
            if handle.conn is not None:
                handle.conn.close()
            process = handle.process
            if process is not None and process.is_alive():
                process.join(timeout=5.0 if drain else 1.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            handle.alive = False
        shutil.rmtree(self._socket_dir, ignore_errors=True)

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "DEADLINE_GRACE_SECONDS",
    "SPAWN_CONNECT_TIMEOUT",
    "ClusterService",
    "worker_main",
]
