"""The prediction service: registry + feature store + micro-batcher.

One object answers online prediction traffic end to end: row ids are looked
up in the :class:`~repro.serve.feature_store.FeatureStore` (which maps the
shard files directly), requests are coalesced by the
:class:`~repro.serve.batcher.MicroBatcher` so the model runs one compressed-
style batch operation per mini-batch instead of per request, and a score
array absorbs repeat traffic entirely.  Counters cover the three levels
(cache, batcher, store) so a load test can tell *where* each request was
answered.  They are the ``serve.*`` series of the process registry, bumped
directly (:mod:`repro.obs.metrics`); ``service.stats.snapshot()`` reads
them back, exact per field and consistent across fields at quiescence.

The cache is one **score array** (:class:`ScoreArray`) per store handle
(:class:`_Serving`), for every model: a ``float64`` prediction and a filled
flag per stored row, so it costs ``n_rows × 9`` bytes per process — 216 KB
for 24 000 rows, 90 MB for 10 M.  The pages of ``np.empty``/``np.zeros`` become resident only when a
fill touches them, so there is no budget to set, and nothing is ever
evicted.  Nothing is scored when the service opens.  One fill step
(:meth:`PredictionService._fill`) computes the rows a request needs that are
not yet filled and writes the values first, then the flags, under the
service lock:

* a model built on ``A·v`` (``"matvec"`` in its ``core_ops``) scores each
  touched shard that is not yet filled whole, in the compressed domain
  (:meth:`PredictionService._shard_scores`, the paper's Section 4 route):
  one ``model.predict(parsed shard)`` costs less for all of a shard's rows
  than decoding one of them;
* a network (``A·M`` over a whole shard costs more than decoding all of it)
  decodes its missing rows with one ``get_rows`` and scores them with one
  model call.

:meth:`PredictionService.submit_id` answers a filled row with
:meth:`ScoreArray.get` on the caller's thread — no future, no batcher hop,
no ``locate``, no lock, no clock: the hit is counted, not timed; a miss
goes through the batcher, which fills its whole batch at once.  A bulk
request (:meth:`PredictionService.predict_ids`, ``submit_ids``) is a
range check, a fill of its missing rows and one gather,
so a single-row answer, a bulk one and — for a linear model —
``Estimator.predict(Dataset)`` are bit-equal.  A filled row is never
written again, so once a row is scored every path returns the same bits.
The array lives with the store handle it was scored from, so
:meth:`PredictionService.reopen_store` drops it by construction.
:meth:`PredictionService.scored_span` reads a run of it back out, which is
how a cluster worker shares its scores with the dispatcher, the one other
holder of a :class:`ScoreArray`.

Every front-end serves through this object — threads call it, the asyncio
surface and the cluster workers use its ``submit_*`` futures — so queue
bound, deadline shedding and the reopen-after-compact retry exist once.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Iterable
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engine.shards import (
    as_row_id,
    check_row_ids,
    read_extent,
    row_id_array,
    row_out_of_range,
)
from repro.obs import metrics as obs_metrics
from repro.serve.batcher import MicroBatcher
from repro.serve.checkpoint import Checkpoint, ModelRegistry
from repro.serve.feature_store import FeatureStore

#: Distinguishes each service instance's metrics in the process registry
#: (label ``svc=<n>``), so two services never share counters.
_SVC_IDS = itertools.count()


@dataclass(frozen=True)
class ServiceStatsSnapshot:
    """A copy of a service's request counters, read from its ``serve.*`` series.

    Each field is exact, but the fields are read one after another while
    traffic may still be counting, so they agree with each other only at
    quiescence.  A stored-row hit is counted, not timed: ``request_seconds``
    sums the requests that were not single-row hits.
    """

    requests: int = 0
    rows_predicted: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    predict_seconds: float = 0.0
    request_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        accesses = self.cache_hits + self.cache_misses
        return self.cache_hits / accesses if accesses else 0.0

    @property
    def predicted_rows_per_second(self) -> float:
        return self.rows_predicted / self.predict_seconds if self.predict_seconds else 0.0


class ServiceStats:
    """``service.stats``: reads the service's ``serve.*`` series into a
    :class:`ServiceStatsSnapshot`."""

    __slots__ = ("_metrics",)

    def __init__(self, metrics):
        self._metrics = metrics  # the service's ``metrics()``

    def snapshot(self) -> ServiceStatsSnapshot:
        metrics = self._metrics()
        counters, histograms = metrics["counters"], metrics["histograms"]
        return ServiceStatsSnapshot(
            requests=counters["serve.requests"],
            rows_predicted=counters["serve.rows_predicted"],
            cache_hits=counters["serve.cache.hits"],
            cache_misses=counters["serve.cache.misses"],
            predict_seconds=histograms["serve.predict.seconds"]["sum"],
            request_seconds=histograms["serve.request.seconds"]["sum"],
        )


class ScoreArray:
    """One manifest generation's predictions: a ``float64`` score and a filled flag per row.

    ``n_rows × 9`` bytes.  :meth:`write` stores the values first, then the
    flags, and never rewrites a filled row, so a reader that sees
    ``filled[r]`` without taking a lock reads row ``r``'s final score;
    ``complete`` once all ``n_filled`` rows are.  Writers serialise their
    :meth:`write` calls.  A new generation gets a new array, never an
    update of the old one.  :class:`PredictionService` keeps one per store
    handle and the cluster dispatcher one per generation its workers serve.
    """

    __slots__ = ("generation", "scores", "filled", "n_filled", "complete")

    def __init__(self, n_rows: int, generation: int | None = None):
        self.generation = generation
        self.scores = np.empty(n_rows)
        self.filled = np.zeros(n_rows, dtype=bool)
        self.n_filled = 0
        self.complete = False

    def get(self, row_id: int) -> float | None:
        """Row ``row_id``'s score once it is filled, else ``None`` (an id out of range too)."""
        if 0 <= row_id < self.scores.size and (self.complete or self.filled[row_id]):
            return float(self.scores[row_id])
        return None

    def write(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Store ``values`` for the distinct ``rows`` still unfilled: values first, then flags.

        Two racing writers may both have computed a row; the first fills it,
        and the second's value is dropped, so a filled row never changes.
        """
        fresh = ~self.filled[rows]
        rows = rows[fresh]
        self.scores[rows] = values[fresh]  # before the flags: a flag means its value
        self.filled[rows] = True
        self.n_filled += rows.size
        self.complete = self.n_filled == self.filled.size

    def span(self, row_id: int, start: int, stop: int) -> tuple[int, np.ndarray]:
        """The widest filled run this array vouches for around ``row_id``, as
        ``(first row, scores)``: all of ``[start, stop)`` when every row of it
        is filled, else ``row_id`` alone, else nothing."""
        if self.complete or self.filled[start:stop].all():
            return start, self.scores[start:stop].copy()
        if self.filled[row_id]:
            return row_id, self.scores[row_id : row_id + 1].copy()
        return row_id, np.empty(0)


class _Serving(ScoreArray):
    """One feature-store handle and the score array computed from it.

    The service replaces the whole object in one assignment, so a score
    computed on one manifest generation never answers a lookup that started
    on the next.
    """

    __slots__ = ("store",)

    def __init__(self, store: FeatureStore | None):
        if store is None:
            super().__init__(0)
        else:
            super().__init__(store.n_rows, store.dataset.generation)
        self.store = store


class PredictionService:
    """Serve single-row and bulk predictions from a trained model.

    Stored rows are answered out of one score array of ``n_rows × 9`` bytes
    per store handle (see the module docstring), filled on first touch.

    Parameters
    ----------
    model:
        Any :mod:`repro.ml.models` model (``predict`` over a batch).
    store:
        Feature store resolving row ids; optional — a store-less service
        still answers feature-vector requests.
    max_batch_size / max_wait_seconds:
        Micro-batching knobs (``max_batch_size=1`` disables coalescing).
    max_queue:
        Bound on queued requests (a cluster worker's ``backlog``; ``None`` = unbounded).
    """

    def __init__(
        self,
        model,
        store: FeatureStore | None = None,
        *,
        max_batch_size: int = 32,
        max_wait_seconds: float = 0.0,
        max_queue: int | None = None,
    ):
        self.model = model
        self._svc_id = svc = next(_SVC_IDS)
        # Serialises generation reopens; the store handle itself is
        # swapped atomically so readers never need this lock.
        self._reopen_lock = threading.Lock()
        self._lock = threading.Lock()  # serialises score-array writes and the reopen swap
        # Whole-shard scoring is for models whose prediction is one ``A·v``.
        self._scores_shards = "matvec" in getattr(model, "core_ops", ())
        self._serving = _Serving(store)
        counter, histogram = obs_metrics.counter, obs_metrics.histogram
        self._requests = counter("serve.requests", svc=svc)
        self._hits = counter("serve.cache.hits", svc=svc)
        self._misses = counter("serve.cache.misses", svc=svc)
        self._rows_predicted = counter("serve.rows_predicted", svc=svc)
        self._predict_seconds = histogram("serve.predict.seconds", svc=svc)
        self._request_seconds = histogram("serve.request.seconds", svc=svc)
        # The store's whole-shard counts, kept across store reopens.
        self._shards_scored = counter("serve.store.shards_scored", svc=svc)
        self._rows_scored = counter("serve.store.rows_scored", svc=svc)
        self._rows_gathered = counter("serve.store.rows_gathered", svc=svc)
        self._rows_filled = obs_metrics.gauge("serve.cache.rows", svc=svc)
        self.stats = ServiceStats(self.metrics)
        self._batcher = MicroBatcher(
            self._handle_batch,
            max_batch_size=max_batch_size,
            max_wait_seconds=max_wait_seconds,
            max_queue=max_queue,
            metrics_labels={"svc": self._svc_id},
        )

    @classmethod
    def from_registry(
        cls,
        registry: ModelRegistry | Path | str,
        version: int | str = "latest",
        *,
        shard_dir: Path | str | None = None,
        **kwargs,
    ) -> tuple["PredictionService", Checkpoint]:
        """Build a service from a checkpoint registry (and its shard dir).

        ``shard_dir`` overrides the directory recorded in the checkpoint;
        when neither is available the service runs without a feature store.
        ``kwargs`` go to the constructor.  Returns the service and the
        resolved checkpoint (for provenance).
        """
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        checkpoint = registry.load(version)
        directory = Path(shard_dir) if shard_dir is not None else checkpoint.shard_dir
        store = None
        if directory is not None:
            store = FeatureStore.open(directory)
        return cls(checkpoint.model, store, **kwargs), checkpoint

    # -- the store handle ------------------------------------------------------

    @property
    def store(self) -> FeatureStore | None:
        """The feature store requests are being answered from right now."""
        return self._serving.store

    # -- batched execution -----------------------------------------------------

    def _handle_batch(self, requests: list) -> list:
        """Worker-side handler: one fill for the batch's rows, one model call for its vectors."""
        outputs: list = [None] * len(requests)
        ids, id_slots, vec_slots = [], [], []
        for i, (kind, req) in enumerate(requests):
            if kind == "id":
                ids.append(req)
                id_slots.append(i)
            elif kind == "vec":
                vec_slots.append(i)
            else:  # "ids", already a mini-batch: its own lookup, model call and failure
                try:
                    outputs[i] = self._score_ids(req).tolist()
                except Exception as exc:
                    outputs[i] = exc

        def answer(slots: list[int], score) -> None:
            if not slots:
                return
            try:
                predictions = score()
            except Exception as exc:  # these requests share one fate; the others keep theirs
                predictions = [exc] * len(slots)
            for i, prediction in zip(slots, predictions):
                outputs[i] = prediction

        row_ids = np.array(ids, dtype=np.int64)
        vectors = [requests[i][1] for i in vec_slots]
        answer(id_slots, lambda: self._on_store(self._lookup, row_ids, bulk=False)[0].tolist())
        answer(vec_slots, lambda: self._score(np.vstack(vectors)).tolist())
        return outputs

    def _on_store(self, lookup, row_ids, **kwargs):
        """``lookup(serving, row_ids)`` for every row-id path, surviving a generation swap."""
        if self._serving.store is None:
            raise RuntimeError("row-id predictions need a feature store")
        try:
            return lookup(self._serving, row_ids, **kwargs)
        except OSError:
            # A compact/append swapped the manifest and deleted files this
            # store had not mapped yet.  Shards are
            # immutable between swaps and compaction preserves row order,
            # so re-opening at the new generation and retrying is always
            # correct — in-flight requests survive the swap.
            self.reopen_store()
            return lookup(self._serving, row_ids, **kwargs)

    def _lookup(self, serving: _Serving, ids: np.ndarray, *, bulk: bool) -> tuple[np.ndarray, int]:
        """Stored rows out of the score array: a range check, a fill, one gather.

        The ids are range-checked first — a negative id must never wrap
        around — then :meth:`_fill` computes the rows not yet filled; once
        the array is complete that is the check and the gather alone.  Each
        row the fill computed is a store ``row_miss``; every other row is a
        ``row_hit`` for a single-row request and gathered for a bulk one.
        Returns the predictions and how many rows had to be computed.
        """
        store, scores = serving.store, serving.scores
        check_row_ids(ids, scores.size)  # IndexError before any shard is read
        computed = 0 if serving.complete else self._fill(serving, ids)
        answered = ids.size - computed
        if bulk:
            self._rows_gathered.inc(answered)
        else:
            store.count_scored(hits=answered)
        return scores[ids], computed

    def _fill(self, serving: _Serving, ids: np.ndarray) -> int:
        """Compute and store the scores of the rows of ``ids`` not yet filled.

        A model built on ``A·v`` scores each shard those rows live in whole
        (:meth:`_shard_scores`); a network decodes the rows with one
        ``get_rows`` and scores them with one model call.  Either way each
        distinct row asked for is counted as one store ``row_miss``.
        Returns how many distinct rows that was.
        """
        missing = np.unique(ids[~serving.filled[ids]])
        if not missing.size:
            return 0
        store = serving.store
        if self._scores_shards:
            batch_ids, wanted = np.unique(store.locate_rows(missing)[0], return_counts=True)
            for batch_id, rows in zip(batch_ids.tolist(), wanted.tolist()):
                vector = self._shard_scores(store, batch_id, rows)
                self._write(serving, np.arange(*store.row_span(batch_id)), vector)
            store.count_scored(misses=missing.size)
        else:  # get_rows counts the rows it decodes as misses
            self._write(serving, missing, self._score(store.get_rows(missing)))
        return missing.size

    def _shard_scores(self, store: FeatureStore, batch_id: int, rows: int) -> np.ndarray:
        """The model's predictions for every row of one shard.

        The one place a stored shard is scored: ``model.predict`` runs on
        the shard's parsed form with the compressed-domain kernels — it is
        never decoded.  ``rows`` is how many of the shard's rows the caller
        wants.
        """
        vector = self._score(store.parsed(batch_id), rows=rows)
        self._shards_scored.inc()
        self._rows_scored.inc(vector.size)
        return vector

    def _write(self, serving: _Serving, rows: np.ndarray, values: np.ndarray) -> None:
        """:meth:`ScoreArray.write` under the service lock, which serialises the writers."""
        with self._lock:
            serving.write(rows, values)
            if serving is self._serving:  # the gauge follows the handle in use
                self._rows_filled.set(serving.n_filled)

    def _score_ids(self, row_ids: np.ndarray) -> np.ndarray:
        """Predictions for a bulk request of stored rows, in request order."""
        predictions, computed = self._on_store(self._lookup, row_ids, bulk=True)
        (self._misses if computed else self._hits).inc()  # a hit: the model did not run for it
        return predictions

    def _score(self, batch, rows: int | None = None) -> np.ndarray:
        """One model call over a mini-batch, timed into the predict stats.

        ``rows`` is how many of the batch's rows were asked for: all of
        them, unless the batch is a shard scored whole for some of its rows.
        """
        start = time.perf_counter()
        predictions = np.asarray(self.model.predict(batch), dtype=np.float64)
        self._predict_seconds.observe(time.perf_counter() - start)
        self._rows_predicted.inc(predictions.shape[0] if rows is None else rows)
        return predictions

    # -- single-row API --------------------------------------------------------

    def submit_id(self, row_id: int, *, deadline: float | None = None) -> float | Future:
        """Non-blocking :meth:`predict_id`: the cached prediction itself, or the
        future of the request just queued.

        The id must be an integer (``TypeError`` for a float or a bool, never
        a truncated row), and is range-checked here, on the caller's thread:
        one out of range comes back as a future already failed with that
        ``IndexError`` and is never queued, so it cannot fail its batch-mates.
        A hit is :meth:`ScoreArray.get` and submits nothing, so it costs no
        :class:`Future` either; it is counted — a request, a cache hit and
        the store's row hit, three lock-free ticks — but not timed, and it
        takes no lock.  Threads, the asyncio surface and the cluster
        workers all enter here.  A miss resolves from the micro-batcher's
        thread, which fills the scores of its whole batch.  ``deadline`` is
        :meth:`MicroBatcher.submit`'s.
        """
        row_id = as_row_id(row_id)
        serving = self._serving
        store = serving.store
        if store is not None:
            value = serving.get(row_id)
            if value is not None:
                self._requests.inc()
                self._hits.inc()
                store.count_hit()
                return value
            if not 0 <= row_id < store.n_rows:
                failed: Future = Future()
                failed.set_exception(row_out_of_range(row_id, store.n_rows))
                return failed
        self._misses.inc()
        return self._submit(("id", row_id), time.perf_counter(), deadline)

    def submit_vector(self, features: np.ndarray, *, deadline: float | None = None) -> Future:
        """Non-blocking :meth:`predict_vector` (uncached, micro-batched)."""
        start = time.perf_counter()
        vector = np.asarray(features, dtype=np.float64).ravel()
        return self._submit(("vec", vector), start, deadline)

    def submit_ids(self, row_ids: Iterable[int], *, deadline: float | None = None) -> Future:
        """One bulk request on the batcher queue; resolves to a list of floats.

        A cluster worker's ``predict_many`` frame, so bulk work queues, sheds and
        drains like the rest; in-process callers want :meth:`predict_ids` (no hop).
        """
        return self._submit(("ids", row_id_array(row_ids)), time.perf_counter(), deadline)

    def _submit(self, request, start: float, deadline) -> Future:
        """Queue one request; on success its done-callback counts it."""

        def finish(future: Future) -> None:
            try:
                future.result()
            except BaseException:  # cancelled, shed or failed: nothing to count
                return
            self._count_request(start)

        future = self._batcher.submit(request, deadline=deadline)
        future.add_done_callback(finish)
        return future

    def _count_request(self, start: float) -> None:
        """Count and time one answered request that was not a single-row hit."""
        self._requests.inc()
        self._request_seconds.observe(time.perf_counter() - start)

    def predict_id(self, row_id: int) -> float:
        """One stored row, through cache and micro-batcher; ``IndexError`` if out of range."""
        served = self.submit_id(row_id)
        return served.result() if isinstance(served, Future) else served

    def predict_vector(self, features: np.ndarray) -> float:
        """Predict for one raw feature vector (uncached, micro-batched)."""
        return self.submit_vector(features).result()

    # -- bulk API --------------------------------------------------------------

    def predict_ids(self, row_ids: Iterable[int]) -> np.ndarray:
        """Bulk path, no queueing: answered by :meth:`_lookup` on the caller's thread."""
        start = time.perf_counter()
        predictions = self._score_ids(row_id_array(row_ids))
        self._count_request(start)
        return predictions

    def predict_matrix(self, features: np.ndarray) -> np.ndarray:
        """Bulk path over raw features: one model call."""
        start = time.perf_counter()
        predictions = self._score(np.asarray(features, dtype=np.float64))
        self._count_request(start)
        return predictions

    # -- generation watching ---------------------------------------------------

    @property
    def generation(self) -> int | None:
        """The manifest generation the feature store was opened at."""
        return self._serving.generation

    def scored_span(self, row_id: int) -> tuple[int | None, int, np.ndarray]:
        """The widest run of stored scores around ``row_id``, as
        ``(generation, first row, scores)``, all read from one score array.

        The run is the row's whole shard when the array holds all of it —
        always, once a linear model has answered the row, since its fill
        scores shards whole — otherwise the row alone, or nothing if the row
        is not scored (an id out of range too).  What a cluster worker sends
        its dispatcher with each single-row answer.
        """
        serving = self._serving
        store = serving.store
        if store is None or not 0 <= row_id < store.n_rows:
            return serving.generation, row_id, np.empty(0)
        return (serving.generation, *serving.span(row_id, *store.row_span(store.locate(row_id)[0])))

    def reopen_store(self) -> bool:
        """Re-open the feature store over the same shard directory.

        Called when the on-disk manifest generation moved past the one this
        service opened (a ``Dataset.compact``/``append`` swap).  The new
        store is built complete, then swapped in with one attribute
        assignment — in-flight requests finish on whichever store they
        started with, which is safe because shard data is immutable between
        swaps (compaction re-encodes bytes, never changes rows).  Returns
        ``False`` for store-less services.  The score array goes with the
        store it was computed from, so it and the new store's parsed shards
        start cold, and the new store maps the new generation's files.
        """
        if self.store is None:
            return False
        with self._reopen_lock:
            reopened = FeatureStore.open(self.store.dataset.path)
            with self._lock:
                self._serving = _Serving(reopened)
                self._rows_filled.set(0)
        obs_metrics.counter("serve.store.reopens", svc=self._svc_id).inc()
        return True

    def maybe_reopen_store(self) -> bool:
        """Reopen only if the on-disk generation moved; returns whether it did.

        This is the cheap poll a generation watcher calls: one manifest JSON
        read, and nothing else unless the generation actually changed.
        """
        store = self.store
        if store is None:
            return False
        try:
            current, _ = read_extent(store.dataset.path)
        except (FileNotFoundError, ValueError):
            return False  # mid-swap or gone; the retry path covers races
        if current == store.dataset.generation:
            return False
        return self.reopen_store()

    # -- lifecycle -------------------------------------------------------------

    def metrics(self) -> dict:
        """This instance's ``serve.*`` metrics as a plain dict.

        Keys are the bare metric names (``serve.requests``,
        ``serve.queue.wait_seconds``, ...) — the per-instance ``svc`` label
        used in the process-global registry is filtered on and stripped.
        Each series is exact; read while traffic is counting, they agree
        with each other only at quiescence.
        """
        return obs_metrics.snapshot("serve.", labels={"svc": self._svc_id}, strip_labels=True)

    @property
    def batcher_stats(self):
        return self._batcher.stats

    @property
    def queue_depth(self) -> int:
        return self._batcher.queue_depth

    @property
    def store_stats(self):
        return self.store.stats if self.store is not None else None

    def close(self, drain: bool = True) -> None:
        """Shut the micro-batcher down; see :meth:`MicroBatcher.close`.

        ``drain=False`` fails still-queued requests with
        :class:`~repro.serve.batcher.ServiceClosed` instead of serving them.
        """
        self._batcher.close(drain=drain)

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
