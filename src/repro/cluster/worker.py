"""One serving worker process: a socket adapter over a ``PredictionService``.

Each worker owns a full, private copy of the read path — its own feature
store and shard mappings, checkpoint load, and score array — over
the *shared* shard directory.
Shards are immutable between manifest swaps, so N workers need no
coordination beyond watching the manifest generation; the page cache
deduplicates the actual bytes across processes.

The worker has no request pipeline of its own.  A ``predict`` frame becomes
:meth:`~repro.serve.service.PredictionService.submit_id` and a
``predict_many`` frame ``submit_ids``, each with the frame's remaining-seconds
``deadline`` and a done-callback that writes the reply frame: the value, or
an error code chosen from the exception class.  A ``predict`` answer is a
scored reply: it also carries the manifest generation and the run of stored
scores around the row (:meth:`~repro.serve.service.PredictionService.scored_span`),
which the dispatcher keeps to answer those rows itself.  Cache probe, the queue
bounded at ``backlog`` (a refusal means the dispatcher's in-flight count
slipped, and is still an explicit :class:`ServiceOverloaded`), coalescing,
deadline shedding and the reopen-after-compact retry are the service's,
exactly as for in-process callers.

The process runs three threads: the **reader** (main thread; control ops
inline, predictions submitted to the service), the service's **batcher**
(which also runs the reply callbacks), and the **generation watcher**
(hot-reopens the feature store after a compact without touching in-flight
work).

A worker is a fork of the fork server :mod:`repro.cluster.server` preloads
with this module: born with the imports done and its end of the dispatcher's
socketpair in hand, it leaves through the fork server's ``os._exit``, not
through interpreter finalisation.
"""

from __future__ import annotations

import os
import socket
import threading
from concurrent.futures import Future
from functools import partial

from repro.cluster.errors import DeadlineExceeded, ServiceClosed, ServiceOverloaded
from repro.cluster.protocol import ProtocolError, encode_frame, recv_frame, send_frame
from repro.cluster.watch import DEFAULT_POLL_SECONDS, GenerationWatcher
from repro.obs import metrics as obs_metrics
from repro.serve.service import PredictionService

#: The error code a worker answers with for each exception class the
#: pipeline raises — and for a reply that cannot be framed; the dispatcher
#: inverts this table to raise the same class.
ERROR_CODES = {
    IndexError: "out_of_range",
    DeadlineExceeded: "deadline",
    ServiceOverloaded: "overloaded",
    ServiceClosed: "closed",
    ProtocolError: "unframeable",
}


#: The process that imported this module: the fork server when preloaded
#: there, else the worker itself (which then reports ``preloaded: false``).
_IMPORT_PID = os.getpid()


def worker_main(config: dict, conn: socket.socket) -> None:
    """Process entry point: serve the dispatcher on ``conn``, this worker's end
    of its socketpair.  The first frame is ``ready``, or — when the service
    cannot be built — the exception that says why, and a non-zero exit."""
    try:
        worker = _Worker(config, conn)
    except Exception as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        send_frame(conn, {"op": "ready", "ok": False, **error})
        raise
    worker.run()


class _Worker:
    def __init__(self, config: dict, conn: socket.socket):
        self.index = int(config["worker_index"])
        self.poll_seconds = float(config.get("poll_seconds") or DEFAULT_POLL_SECONDS)
        self._send_lock = threading.Lock()
        self._conn = conn

        labels = {"worker": self.index}
        self._m_requests = obs_metrics.counter("cluster.worker.requests", **labels)
        self._m_shed = {
            code: obs_metrics.counter("cluster.worker.shed", reason=code, **labels)
            for code in ("deadline", "overloaded")
        }
        self._m_cache_hits = obs_metrics.counter("cluster.worker.cache_hits", **labels)
        self._m_depth = obs_metrics.gauge("cluster.worker.queue_depth", **labels)

        version = config.get("version", "latest")
        self.service, self.checkpoint = PredictionService.from_registry(
            config["checkpoint_dir"],
            version if version == "latest" else int(version),
            shard_dir=config["shard_dir"],
            max_batch_size=int(config.get("max_batch_size", 32)),
            max_queue=int(config.get("backlog", 64)),
        )

    # -- lifecycle -------------------------------------------------------------

    def run(self) -> None:
        self._send({
            "op": "ready",
            "ok": True,
            "pid": os.getpid(),
            "generation": self.service.generation,
            "n_rows": self.service.store.n_rows,
        })
        watcher = GenerationWatcher(
            self.service.maybe_reopen_store, poll_seconds=self.poll_seconds
        )
        watcher.start()
        try:
            shutdown_id = self._reader_loop()
        finally:
            # Joins the batcher after it served everything queued, reply
            # callbacks included.
            self.service.close(drain=True)
            watcher.stop()
        if shutdown_id is not None:
            # Ack only now that every queued request has its answer on
            # the wire: the dispatcher reads this as "drain complete".
            self._send({"id": shutdown_id, "ok": True})

    # -- reader side -----------------------------------------------------------

    def _reader_loop(self) -> int | None:
        """Handle frames until shutdown or EOF; returns the shutdown req id."""
        while True:
            frame = recv_frame(self._conn)
            if frame is None:
                return None  # dispatcher went away; drain and exit
            op = frame.get("op")
            if op == "predict":
                row_id = frame.get("row_id")
                self._serve(frame, self.service.submit_id, row_id, partial(self._scored, row_id))
            elif op == "predict_many":
                self._serve(frame, self.service.submit_ids, frame.get("row_ids") or [], _values)
            elif op == "ping":
                self._send(
                    {
                        "id": frame.get("id"),
                        "ok": True,
                        "pid": os.getpid(),
                        "preloaded": os.getpid() != _IMPORT_PID,
                        "worker": self.index,
                        "generation": self.service.generation,
                        "n_rows": self.service.store.n_rows,
                        "queue_depth": self.service.queue_depth,
                    }
                )
            elif op == "metrics":
                self._send({"id": frame.get("id"), "ok": True, "metrics": self._metrics()})
            elif op == "shutdown":
                return frame.get("id")
            elif op == "crash":  # fault injection for the respawn tests
                os._exit(13)
            else:
                self._reply_error(frame.get("id"), "bad_request", f"unknown op {op!r}")

    def _serve(self, frame: dict, submit, rows, answer) -> None:
        """Submit one prediction frame; its reply, the fields ``answer(result)``
        returns, is written when it resolves."""
        self._m_requests.inc()
        req_id = frame.get("id")
        try:
            served = submit(rows, deadline=frame.get("deadline"))
        except Exception as exc:  # refused at the door: queue full, closed, bad id
            self._reply_exception(req_id, exc)
            return
        if isinstance(served, Future):
            served.add_done_callback(lambda f: self._reply(req_id, answer, f))
        else:  # a cache hit: answered on the reader thread
            self._send({"id": req_id, "ok": True, **answer(served)})

    def _reply(self, req_id, answer, future: Future) -> None:
        """Done-callback, on the batcher thread."""
        try:
            result = future.result()
        except BaseException as exc:  # whatever the pipeline stored in the future
            return self._reply_exception(req_id, exc)
        self._send({"id": req_id, "ok": True, **answer(result)})

    def _scored(self, row_id: int, value: float) -> dict:
        """A ``predict`` answer's fields: the value, and the run of stored scores
        around the row that the dispatcher may keep (the protocol's scored reply)."""
        generation, start, span = self.service.scored_span(row_id)
        return {"generation": generation, "value": value, "start": start, "span": span}

    def _reply_exception(self, req_id, exc: BaseException) -> None:
        self._reply_error(req_id, ERROR_CODES.get(type(exc), type(exc).__name__), str(exc))

    # -- helpers ---------------------------------------------------------------

    def _metrics(self) -> dict:
        # The cache, the queue and the sheds are the service's; the
        # dispatcher-side readers find them under this worker's label,
        # refreshed per snapshot.
        merged = self.service.metrics()
        for reason, shed in self._m_shed.items():
            shed.inc(merged["counters"][f"serve.shed{{reason={reason}}}"] - shed.value)
        self._m_cache_hits.inc(self.service.stats.cache_hits - self._m_cache_hits.value)
        self._m_depth.set(self.service.queue_depth)
        mine = obs_metrics.snapshot("cluster.worker.", labels={"worker": self.index})
        for kind in ("counters", "gauges", "histograms"):
            merged.setdefault(kind, {}).update(mine.get(kind, {}))
        merged["generation"] = self.service.generation
        merged["pid"] = os.getpid()
        return merged

    def _reply_error(self, req_id, code: str, message: str) -> None:
        self._send(_error(req_id, code, message))

    def _send(self, message: dict) -> None:
        """Frame ``message`` and write it; one that cannot be framed is answered
        with the reason instead, so its caller hears back and its slot frees."""
        try:
            frame = encode_frame(message)
        except ProtocolError as exc:
            frame = encode_frame(_error(message.get("id"), ERROR_CODES[ProtocolError], str(exc)))
        with self._send_lock:
            try:
                self._conn.sendall(frame)
            except OSError:
                # The dispatcher hung up; nothing to answer to.  The reader
                # will see EOF and wind the worker down.
                pass


def _values(values: list) -> dict:
    return {"values": values}


def _error(req_id, code: str, message: str) -> dict:
    return {"id": req_id, "ok": False, "error": code, "message": message}


__all__ = ["ERROR_CODES", "worker_main"]
