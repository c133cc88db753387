"""The prediction service: registry + feature store + micro-batcher.

One object answers online prediction traffic end to end: row ids are looked
up in the :class:`~repro.serve.feature_store.FeatureStore` (which maps the
shard files directly), requests are coalesced by the
:class:`~repro.serve.batcher.MicroBatcher` so the model runs one compressed-
style batch operation per mini-batch instead of per request, and a score
array absorbs repeat traffic entirely.  Counters cover the three levels
(cache, batcher, store) so a load test can tell *where* each request was
answered.

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
``float(scores[row_id])`` on the caller's thread — no future, no batcher
hop, no ``locate``; a miss goes through the batcher, which fills its whole
batch at once.  A bulk request (:meth:`PredictionService.predict_ids`,
``submit_ids``) is a range check, a fill of its missing rows and one gather,
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
    read_generation,
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
    """A consistent point-in-time copy of a service's request counters.

    Taken under the service lock (:meth:`ServiceStats.snapshot`), so the
    fields are mutually consistent — ``requests`` counted at the same
    instant as ``request_seconds`` — unlike reading the live attributes
    one by one while the worker keeps writing.
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
    def mean_request_seconds(self) -> float:
        return self.request_seconds / self.requests if self.requests else 0.0

    @property
    def predicted_rows_per_second(self) -> float:
        return self.rows_predicted / self.predict_seconds if self.predict_seconds else 0.0


class ServiceStats:
    """Request-level counters for a :class:`PredictionService`.

    Since the obs migration this is a *view* over ``serve.*`` metrics in the
    process-global registry (labelled per service instance), not standalone
    storage: the same numbers appear in ``repro.obs.metrics_snapshot()`` and
    ``service.metrics()``.  The attribute API (``stats.requests``,
    ``stats.cache_hit_rate``, ...) is unchanged; for multi-field reads use
    :meth:`snapshot`, which copies everything under one lock.

    All metrics share the service's re-entrant lock, so a snapshot can never
    observe a half-applied multi-counter update.
    """

    def __init__(self, lock: threading.RLock, svc: int):
        registry = obs_metrics.default_registry()
        self._lock = lock
        self._requests = registry.counter("serve.requests", lock=lock, svc=svc)
        self._rows = registry.counter("serve.rows_predicted", lock=lock, svc=svc)
        self._cache_hits = registry.counter("serve.cache.hits", lock=lock, svc=svc)
        self._cache_misses = registry.counter("serve.cache.misses", lock=lock, svc=svc)
        self._predict = registry.histogram("serve.predict.seconds", lock=lock, svc=svc)
        self._request = registry.histogram("serve.request.seconds", lock=lock, svc=svc)

    # -- live attribute API (unchanged shape) ----------------------------------

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def rows_predicted(self) -> int:
        return self._rows.value

    @property
    def cache_hits(self) -> int:
        return self._cache_hits.value

    @property
    def cache_misses(self) -> int:
        return self._cache_misses.value

    @property
    def predict_seconds(self) -> float:
        return self._predict.sum

    @property
    def request_seconds(self) -> float:
        return self._request.sum

    @property
    def cache_hit_rate(self) -> float:
        return self.snapshot().cache_hit_rate

    @property
    def mean_request_seconds(self) -> float:
        return self.snapshot().mean_request_seconds

    @property
    def predicted_rows_per_second(self) -> float:
        return self.snapshot().predicted_rows_per_second

    def snapshot(self) -> ServiceStatsSnapshot:
        """All counters copied atomically under the service lock."""
        with self._lock:
            return ServiceStatsSnapshot(
                requests=self._requests.value,
                rows_predicted=self._rows.value,
                cache_hits=self._cache_hits.value,
                cache_misses=self._cache_misses.value,
                predict_seconds=self._predict.sum,
                request_seconds=self._request.sum,
            )

    # -- mutators (service-internal; the caller holds the service lock, which
    # is every metric's lock too, so the `_locked` fast paths apply) -----------

    def record_request(self, seconds: float) -> None:
        self._requests.inc_locked()
        self._request.observe_locked(seconds)

    def record_predict(self, rows: int, seconds: float) -> None:
        self._rows.inc_locked(rows)
        self._predict.observe_locked(seconds)

    def record_cache_hit(self) -> None:
        self._cache_hits.inc_locked()

    def record_cache_miss(self) -> None:
        self._cache_misses.inc_locked()


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
        self._svc_id = next(_SVC_IDS)
        # Serialises generation reopens; the store handle itself is
        # swapped atomically so readers never need this lock.
        self._reopen_lock = threading.Lock()
        # Re-entrant: the metrics share this lock, so a stats mutator called
        # while the service already holds it must be able to re-acquire.
        self._lock = threading.RLock()  # guards stats and score fills
        self.stats = ServiceStats(self._lock, self._svc_id)
        # Whole-shard scoring is for models whose prediction is one ``A·v``.
        self._scores_shards = "matvec" in getattr(model, "core_ops", ())
        self._serving = _Serving(store)
        # The store's whole-shard counters, kept across store reopens.
        self._shards_scored = obs_metrics.counter("serve.store.shards_scored", svc=self._svc_id)
        self._rows_scored = obs_metrics.counter("serve.store.rows_scored", svc=self._svc_id)
        self._rows_gathered = obs_metrics.counter("serve.store.rows_gathered", svc=self._svc_id)
        self._rows_filled = obs_metrics.gauge("serve.cache.rows", svc=self._svc_id)
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
            store.count_scored(gathered=answered)
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
        store.count_scored(1, vector.size)
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
        with self._lock:  # a hit is a request the model did not run for
            if computed:
                self.stats.record_cache_miss()
            else:
                self.stats.record_cache_hit()
        return predictions

    def _score(self, batch, rows: int | None = None) -> np.ndarray:
        """One model call over a mini-batch, timed into the predict stats.

        ``rows`` is how many of the batch's rows were asked for: all of
        them, unless the batch is a shard scored whole for some of its rows.
        """
        start = time.perf_counter()
        predictions = np.asarray(self.model.predict(batch), dtype=np.float64)
        with self._lock:
            self.stats.record_predict(
                predictions.shape[0] if rows is None else rows, time.perf_counter() - start
            )
        return predictions

    # -- single-row API --------------------------------------------------------

    def submit_id(self, row_id: int, *, deadline: float | None = None) -> float | Future:
        """Non-blocking :meth:`predict_id`: the cached prediction itself, or the
        future of the request just queued.

        The id must be an integer (``TypeError`` for a float or a bool, never
        a truncated row), and is range-checked here, on the caller's thread:
        one out of range comes back as a future already failed with that
        ``IndexError`` and is never queued, so it cannot fail its batch-mates.
        A hit — ``complete or filled[row_id]``, no ``locate`` — is
        ``float(scores[row_id])`` and submits nothing, so it costs no
        :class:`Future` either; threads, the asyncio surface and the cluster
        workers all enter here.  A miss resolves from the micro-batcher's
        thread, which fills the scores of its whole batch.  ``deadline`` is
        :meth:`MicroBatcher.submit`'s.
        """
        row_id = as_row_id(row_id)
        start = time.perf_counter()
        serving = self._serving
        store = serving.store
        if store is not None:
            if not 0 <= row_id < store.n_rows:
                failed: Future = Future()
                failed.set_exception(row_out_of_range(row_id, store.n_rows))
                return failed
            if serving.complete or serving.filled[row_id]:
                with self._lock:
                    self.stats.record_cache_hit()
                    self.stats.record_request(time.perf_counter() - start)
                store.count_scored(hits=1)
                return float(serving.scores[row_id])
        with self._lock:
            self.stats.record_cache_miss()
        return self._submit(("id", row_id), start, deadline)

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
            with self._lock:
                self.stats.record_request(time.perf_counter() - start)

        future = self._batcher.submit(request, deadline=deadline)
        future.add_done_callback(finish)
        return future

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
        with self._lock:
            self.stats.record_request(time.perf_counter() - start)
        return predictions

    def predict_matrix(self, features: np.ndarray) -> np.ndarray:
        """Bulk path over raw features: one model call."""
        start = time.perf_counter()
        predictions = self._score(np.asarray(features, dtype=np.float64))
        with self._lock:
            self.stats.record_request(time.perf_counter() - start)
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
            reopened = FeatureStore.open(self.store.dataset.directory)
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
            current = read_generation(store.dataset.directory)
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
        """
        with self._lock:
            return obs_metrics.snapshot(
                "serve.", labels={"svc": self._svc_id}, strip_labels=True
            )

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
