"""The multi-process serving tier: one dispatcher, N worker processes.

:class:`ClusterService` runs ``workers`` independent processes, each running
:func:`repro.cluster.worker.worker_main` over the *same* checkpoint
registry and shard directory, and speaks length-prefixed frames to each over
a private socketpair (:mod:`repro.cluster.protocol`: fixed binary layouts for
predictions and their answers, JSON for the rest).  Python's GIL serialises
decode work inside one process; N processes decode on N cores.

The dispatcher runs threads, so forking *it* is off the table.  Workers are
forked from the standard library's single-threaded *fork server*, started once
per process with :mod:`repro.cluster.worker` (NumPy, SciPy, the read path)
preloaded: N workers cost one import, every later start and respawn a
``fork``.  Each worker inherits one end of a ``socket.socketpair()`` whose
dispatcher-side copy is closed after launch, so a worker that dies at any
point, start-up included, is an EOF, never a timeout; its first frame is
``ready``, or the exception that kept it from serving.

The dispatcher holds no model and no shard bytes, only a score array
(:class:`~repro.serve.service.ScoreArray`, ``n_rows × 9`` bytes) for the
manifest generation its workers serve.  Per request it does:

* **answering from the array** — ``predict``/``submit`` of a row the array
  has filled is ``float(scores[row_id])`` on the caller's thread: no
  admission slot, no frame, no wait (``submit`` returns a resolved future).
  The array is filled only from worker replies: a worker answers a
  ``predict`` with a scored reply carrying its manifest generation and the
  run of its own stored scores around the row — the row's whole shard for a
  linear model, the row alone for a network — and the dispatcher keeps that
  run if the generation is the array's.  It is sized from the workers'
  ``ready`` frames, nothing is scored for it, and a
  :class:`~repro.cluster.watch.GenerationWatcher` polling the manifest every
  ``poll_seconds`` replaces it whole when the generation moves — replies
  alone cannot tell, since a row the array answers sends none.  Everything
  else is forwarded: ``predict_many``, ids out of range (the array's
  ``n_rows`` may trail an ``append`` by one poll) and every request before
  its row's first reply;
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

import concurrent.futures
import itertools
import multiprocessing
import os
import socket
import threading
import time
from concurrent.futures import Future
from multiprocessing import forkserver
from pathlib import Path

import numpy as np

from repro.cluster.errors import (
    ClusterError,
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
    WorkerCrashed,
)
from repro.cluster.protocol import MAX_ROW_IDS, ProtocolError, recv_frame, send_frame
from repro.cluster.watch import DEFAULT_POLL_SECONDS, GenerationWatcher
from repro.cluster.worker import ERROR_CODES, worker_main
from repro.engine.shards import as_row_id, read_extent, row_id_array
from repro.obs import metrics as obs_metrics
from repro.serve.batcher import fail_future
from repro.serve.checkpoint import Checkpoint, ModelRegistry
from repro.serve.service import ScoreArray

#: What the dispatcher does when every worker is at its backlog.
ADMISSION_POLICIES = ("block", "reject")

#: Seconds the dispatcher waits for a fresh worker's ready frame (covers a
#: cold fork server: one python + numpy + scipy import on a loaded box).
SPAWN_CONNECT_TIMEOUT = 60.0

#: A failed respawn is retried after this long, doubling up to the cap: a
#: respawn costs only a fork, so an unpaced retry would be a fork loop.
RESPAWN_BACKOFF_SECONDS = 0.05
RESPAWN_BACKOFF_CAP_SECONDS = 2.0

#: Extra seconds past a request's deadline before the dispatcher stops
#: waiting for the worker's (late) explicit answer and sheds client-side.
DEADLINE_GRACE_SECONDS = 2.0

_CLUSTER_IDS = itertools.count()

_ERROR_CLASSES = {code: exc_cls for exc_cls, code in ERROR_CODES.items()}

_FORKSERVER_LOCK = threading.Lock()

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _wire_row_id(row_id) -> int:
    """``row_id`` as the int64 a predict frame carries, refused before admission:
    ``TypeError`` for a float or a bool, and the ``IndexError`` an in-process
    ``predict_id`` raises for an id no int64 holds."""
    row_id = as_row_id(row_id)
    if not _INT64_MIN <= row_id <= _INT64_MAX:
        raise IndexError(f"row {row_id} out of range: frames carry 64-bit row ids")
    return row_id


def _wire_row_ids(row_ids) -> np.ndarray:
    """``row_ids`` as the int64 array a ``predict_many`` frame carries, refused
    before admission: ``TypeError`` for a float or bool id, ``IndexError`` for
    an id past int64, ``ProtocolError`` for more ids than one frame holds."""
    try:
        ids = row_id_array(row_ids)
    except OverflowError:
        raise IndexError("row id out of range: frames carry 64-bit row ids") from None
    if ids.size > MAX_ROW_IDS:
        raise ProtocolError(f"{ids.size} row ids exceed the {MAX_ROW_IDS} one frame carries")
    return ids


def _forkserver_context():
    """The ``forkserver`` context, its server running with the worker preloaded.

    Before Python 3.13 the server ignores our ``sys.path`` and skips a preload
    it cannot import without a word, so a ``repro`` that is importable here
    but not installed (pytest's ``pythonpath``, ``sys.path.insert``) would
    preload nothing: the package root rides on ``PYTHONPATH`` for exactly the
    launch.  A server the host application started earlier keeps its own
    preload list.  Either way a worker's ping says whether it was ``preloaded``.
    """
    context = multiprocessing.get_context("forkserver")
    package_root = str(Path(__file__).resolve().parents[2])
    with _FORKSERVER_LOCK:
        context.set_forkserver_preload(["repro.cluster.worker"])
        inherited = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, inherited)))
        try:
            forkserver.ensure_running()
        finally:
            if inherited is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = inherited
    return context


class _WorkerHandle:
    """Parent-side state for one worker process."""

    __slots__ = (
        "index", "config", "process", "conn", "launched", "reader", "pending", "alive", "send_lock"
    )

    def __init__(self, index: int, config: dict):
        self.index = index
        self.config = config
        self.process = None
        self.conn: socket.socket | None = None
        self.launched = 0.0  # time.monotonic() of the last launch
        #: Reads ``conn``; once the worker is gone, brings its successor up.
        self.reader: threading.Thread | None = None
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
    max_batch_size:
        Forwarded to each worker's private service stack.  Each worker
        keeps its own score array, ``n_rows × 9`` bytes *per worker* once
        every row is filled — see :mod:`repro.serve.service` — and the
        dispatcher one more.
    poll_seconds:
        Manifest-generation poll interval of the workers (hot re-open after
        ``Dataset.compact``) and of the dispatcher's score array.
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
        self._ctx = _forkserver_context()
        self._req_ids = itertools.count()
        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self._closing = False

        labels = {"svc": self._cluster_id}
        # A row answered from the array counts both under one lock.
        self._hits_lock = threading.Lock()
        self._m_requests = obs_metrics.counter(
            "cluster.server.requests", lock=self._hits_lock, **labels
        )
        self._m_cache_hits = obs_metrics.counter(
            "cluster.server.cache_hits", lock=self._hits_lock, **labels
        )
        self._m_rows_filled = obs_metrics.gauge("cluster.server.rows_filled", **labels)
        self._m_rejected = obs_metrics.counter("cluster.server.rejected", **labels)
        self._m_shed = obs_metrics.counter("cluster.server.shed", **labels)
        self._m_crashed = obs_metrics.counter("cluster.server.crashed_requests", **labels)
        self._m_respawns = obs_metrics.counter("cluster.server.respawns", **labels)
        self._m_respawn_failures = obs_metrics.counter("cluster.server.respawn_failures", **labels)
        self._m_start_seconds = obs_metrics.histogram(
            "cluster.server.worker_start_seconds", **labels
        )
        self._m_inflight = obs_metrics.gauge("cluster.server.inflight", **labels)

        self._handles = [
            _WorkerHandle(
                index,
                {
                    "worker_index": index,
                    "checkpoint_dir": str(registry.root),
                    "version": self.checkpoint.version,
                    "shard_dir": str(directory),
                    "backlog": backlog,
                    "max_batch_size": max_batch_size,
                    "poll_seconds": poll_seconds,
                },
            )
            for index in range(workers)
        ]
        # Launch all, then await all: the first start is one import wide.
        try:
            for handle in self._handles:
                self._launch(handle)
            ready = [self._await_ready(handle) for handle in self._handles]
        except BaseException:
            for handle in self._handles:
                self._reap(handle)
            raise
        newest = max(ready, key=lambda frame: frame["generation"])
        self._scores = ScoreArray(newest["n_rows"], newest["generation"])
        for handle in self._handles:
            self._adopt(handle)
        self._watcher = GenerationWatcher(
            self._follow_generation,
            poll_seconds=poll_seconds or DEFAULT_POLL_SECONDS,
            name=f"repro-cluster-{self._cluster_id}-watcher",
        ).start()

    # -- worker lifecycle ------------------------------------------------------

    def _launch(self, handle: _WorkerHandle) -> None:
        """Fork one worker holding the far end of a fresh socketpair."""
        handle.launched = time.monotonic()
        handle.conn, worker_end = socket.socketpair()
        process = self._ctx.Process(
            target=worker_main,
            args=(handle.config, worker_end),
            name=f"repro-cluster-{self._cluster_id}-worker-{handle.index}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            # Only the worker may hold this end, or its death is no EOF.
            worker_end.close()
        handle.process = process

    def _await_ready(self, handle: _WorkerHandle) -> dict:
        """Receive the worker's ready frame, or raise naming why there is none."""
        handle.conn.settimeout(SPAWN_CONNECT_TIMEOUT)
        try:
            frame = recv_frame(handle.conn)
        except (ProtocolError, OSError) as exc:  # the timeout is one of these
            frame = {"error": type(exc).__name__, "message": str(exc)}
        handle.conn.settimeout(None)
        if frame is None:
            handle.process.join(timeout=5.0)
            frame = {"error": "exited", "message": f"exitcode {handle.process.exitcode}"}
        if not frame.get("ok"):
            raise WorkerCrashed(
                f"worker {handle.index} failed to start: "
                f"{frame.get('error')}: {frame.get('message')}"
            )
        self._m_start_seconds.observe(time.monotonic() - handle.launched)
        return frame

    def _adopt(self, handle: _WorkerHandle, respawned: bool = False) -> bool:
        """Put a ready worker into service, unless the service closed meanwhile."""
        with self._lock:
            if not self._closing:
                if respawned:
                    # Counted before the worker shows as alive, so whoever
                    # sees it back also sees the respawn.
                    self._m_respawns.inc()
                handle.alive = True
                handle.reader = threading.Thread(
                    target=self._reader_loop,
                    args=(handle,),
                    name=f"repro-cluster-{self._cluster_id}-reader-{handle.index}",
                    daemon=True,
                )
                handle.reader.start()
                return True
        self._reap(handle)
        return False

    def _reap(self, handle: _WorkerHandle, grace: float = 0.0) -> None:
        """Hang up on a worker; terminate it if it has not left in ``grace`` seconds."""
        if handle.conn is not None:
            handle.conn.close()
        process, handle.process = handle.process, None
        if process is None:
            return
        process.join(timeout=grace)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
        if process.exitcode is not None:
            process.close()  # its two descriptors go now, not at collection

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Bring a dead worker's successor up, on the dead one's reader thread.

        Never raises: a failure is counted and retried under the capped
        backoff until a worker answers ready or the service closes.
        """
        backoff = RESPAWN_BACKOFF_SECONDS
        while True:
            try:
                self._launch(handle)
                self._await_ready(handle)
            except Exception:  # whatever it was, this thread is the only healer
                self._m_respawn_failures.inc()
                self._reap(handle)
            else:
                self._adopt(handle, respawned=True)
                return
            with self._slot_free:
                if self._slot_free.wait_for(lambda: self._closing, timeout=backoff):
                    return
            backoff = min(2 * backoff, RESPAWN_BACKOFF_CAP_SECONDS)

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
                if "span" in frame:  # before the caller wakes: its next ask is a hit
                    self._keep(frame)
            if entry is None:
                continue  # late reply for a request the caller gave up on
            self._resolve(entry, frame)
        self._on_worker_gone(handle)

    def _keep(self, frame: dict) -> None:
        """Store a scored reply's span if it is of the array's generation; under the lock."""
        scores, span = self._scores, frame["span"]
        if span and frame["generation"] == scores.generation:
            start = frame["start"]
            scores.write(np.arange(start, start + len(span)), np.asarray(span))
            self._m_rows_filled.set(scores.n_filled)

    def _follow_generation(self) -> bool:
        """The watcher's poll: a new, empty array when the manifest generation moved."""
        generation, n_rows = read_extent(self.shard_dir)
        if generation == self._scores.generation:
            return False
        with self._lock:
            self._scores = ScoreArray(n_rows, generation)
            self._m_rows_filled.set(0)
        return True

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
            handle.alive = False
            orphans = list(handle.pending.values())
            handle.pending.clear()
            self._m_inflight.set(self._total_inflight())
            self._slot_free.notify_all()
            closing = self._closing
        for future, _ in orphans:
            self._m_crashed.inc()
            fail_future(future, WorkerCrashed(f"worker {handle.index} died before answering"))
        if closing:
            return  # close() found this worker alive and reaps it itself
        self._reap(handle, grace=5.0)
        self._respawn(handle)

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

    def _abandon(self, handle: _WorkerHandle, req_id: int) -> bool:
        """Free a request's slot; false if the reader already failed it as an orphan."""
        with self._lock:
            mine = handle.pending.pop(req_id, None) is not None
            self._m_inflight.set(self._total_inflight())
            self._slot_free.notify_all()
        return mine

    def _send(self, handle: _WorkerHandle, req_id: int, message: dict) -> None:
        try:
            with handle.send_lock:
                send_frame(handle.conn, message)
        except ProtocolError:  # nothing was written: the request is at fault, not the worker
            self._abandon(handle, req_id)
            raise
        except OSError as exc:
            if self._abandon(handle, req_id):
                self._m_crashed.inc()  # once per request, whoever saw the crash first
            raise WorkerCrashed(
                f"could not reach worker {handle.index}: {exc}"
            ) from exc

    def _answer(self, row_id: int) -> float | None:
        """Row ``row_id``'s score out of the dispatcher's array, counted as a
        request and a hit; ``None`` if the request must go to a worker."""
        value = None if self._closing else self._scores.get(row_id)
        if value is not None:
            with self._hits_lock:
                self._m_requests.inc_locked()
                self._m_cache_hits.inc_locked()
        return value

    def submit(self, row_id: int, *, deadline: float | None = None) -> Future:
        """Route one row-id prediction; non-blocking, returns a future.

        ``asyncio`` callers can ``await asyncio.wrap_future(cluster.submit(r))``.
        A row the dispatcher's array holds comes back as a future already
        resolved.  Raises admission errors (:class:`ServiceOverloaded`,
        :class:`DeadlineExceeded`, :class:`ServiceClosed`) synchronously; the
        future fails with worker-side errors.
        """
        row_id = _wire_row_id(row_id)
        value = self._answer(row_id)
        if value is not None:
            answered: Future = Future()
            answered.set_result(value)
            return answered
        return self._route("value", {"op": "predict", "row_id": row_id}, deadline)[0]

    def predict(self, row_id: int, *, deadline: float | None = None) -> float:
        """Predict for one stored row: out of the dispatcher's array, else on
        some worker; explicit errors, no hangs."""
        row_id = _wire_row_id(row_id)
        value = self._answer(row_id)
        if value is not None:
            return value
        return self._await(*self._route("value", {"op": "predict", "row_id": row_id}, deadline))

    def predict_many(self, row_ids, *, deadline: float | None = None) -> list[float]:
        """Bulk predict: one frame to one worker, one bulk store+model call."""
        frame = {"op": "predict_many", "row_ids": _wire_row_ids(row_ids)}
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
        except DeadlineExceeded:  # the worker's own explicit answer
            raise
        except concurrent.futures.TimeoutError:  # not the builtin TimeoutError before 3.11
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
        except concurrent.futures.TimeoutError:
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
        dispatcher's own ``cluster.server.*`` series (``requests`` counts
        every ``predict``/``submit``/``predict_many`` call that got past the
        id check, and unless the service closed or lost its workers under
        it, each is one of ``cache_hits``, a worker's ``requests``, ``shed``
        and ``rejected``) and each worker's
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
            # From here no respawn is adopted: a worker not alive now belongs
            # to its reader thread, which reaps whatever it was bringing up.
            live = [handle for handle in self._handles if handle.alive]
            readers = [handle.reader for handle in self._handles]
        acks = []
        for handle in live:
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
        for handle in live:
            self._reap(handle, grace=5.0 if drain else 1.0)
        for reader in readers:
            if reader is not threading.current_thread():
                reader.join(timeout)
        self._watcher.stop()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "ADMISSION_POLICIES",
    "DEADLINE_GRACE_SECONDS",
    "SPAWN_CONNECT_TIMEOUT",
    "ClusterService",
    "worker_main",
]
