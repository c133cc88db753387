"""The prediction service: registry + feature store + micro-batcher.

One object answers online prediction traffic end to end: row ids are looked
up in the :class:`~repro.serve.feature_store.FeatureStore` (which maps the
shard files directly), requests are coalesced by the
:class:`~repro.serve.batcher.MicroBatcher` so the model runs one compressed-
style batch operation per mini-batch instead of per request, and a cache of
``cache_size`` entries absorbs repeat traffic entirely.  Counters cover the
three levels (cache, batcher, store) so a load test can tell *where* each
request was answered.

What the cache holds depends on the model.  For one built on ``A·v``
(``"matvec"`` in its ``core_ops``) it is one **score array** per store
handle, a prediction for every stored row: the paper's Section 4 route, one
``model.predict(parsed shard)`` in the compressed domain, costs less for all
of a shard's rows than decoding one of them.  A shard's slice is filled on
its first touch and never evicted, so the array costs ``n_rows × 8`` bytes
per process — 192 KB for 24 000 rows, 80 MB for 10 M — and any positive
``cache_size`` means "keep every scored shard".  Nothing is scored when the
service opens.  :meth:`PredictionService.submit_id` answers a row whose
shard is filled with ``float(scores[row_id])`` on the caller's thread — no
future, no batcher hop, no decode; on a miss the batcher scores each missing
shard of its batch once (batch-mates in one shard share the call).  Bulk
requests (:meth:`PredictionService.predict_ids`, ``submit_ids``) range-check
their ids, fill the touched shards not yet filled through the same scoring
call (:meth:`PredictionService._shard_scores`) and gather — once every shard
is filled, that is one check and one gather — so a single-row answer, a bulk
one and ``Estimator.predict(Dataset)`` are bit-equal.  The array lives with
the store handle it was scored from (:class:`_Serving`), so
:meth:`PredictionService.reopen_store` drops it by construction.

For a network (``A·M`` over a whole shard costs more than decoding all of
it) a cache entry is one row's prediction keyed by row id, an LRU of
``cache_size`` entries; a miss row-slices just that row, and bulk requests
take ``get_rows``.  ``cache_size=0`` is that dense single-row path for every
model, and bulk requests then score whole only the shards they cover
(:data:`SCORE_WHOLE_COVERAGE`).  A regression score from the dense path can
differ in its last bits from one out of the score array — within 8 ulp of
the score's scale ``|x|·|w| + |b|``, pinned by
``tests/serve/test_bulk_scoring.py``; labels never differ.

Every front-end serves through this object — threads call it, the asyncio
surface and the cluster workers use its ``submit_*`` futures — so cache, queue
bound, deadline shedding and the reopen-after-compact retry exist once.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from collections.abc import Iterable
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engine.shards import (
    as_row_id,
    check_row_ids,
    group_by_shard,
    read_generation,
    row_id_array,
    row_out_of_range,
)
from repro.obs import metrics as obs_metrics
from repro.serve.batcher import MicroBatcher
from repro.serve.checkpoint import Checkpoint, ModelRegistry
from repro.serve.feature_store import FeatureStore
from repro.serve.lru import LRUCache

#: A bulk request that asks for at least this share of a shard's rows has the
#: shard scored whole, ``model.predict(parsed shard)``, and its answers gathered
#: out of the scores; below it the rows are row-sliced and scored densely.
#: Fixed by measurement on 250-row census shards, linear models, parsed shard
#: warm and cold: against a bare ``row_slice`` + dense predict the whole shard
#: is level at 64-77 rows on CVI (the last scheme to cross; TOC 3-40, DEN, CSR
#: and Gzip from the first row), and against ``get_rows`` with a 1 024-row LRU
#: of decoded rows in front at 2-12 rows.  A quarter is never behind under either.
SCORE_WHOLE_COVERAGE = 0.25

#: The ``cache_size`` a service built from a registry uses, in-process, per
#: cluster worker and from the CLI: 256 row predictions for a network; for a
#: linear model any positive value keeps the whole score array.
DEFAULT_CACHE_SIZE = 256

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


class _Serving:
    """One feature-store handle and the scores computed from it.

    For a linear model the service keeps ``scores``, one prediction per
    stored row (``n_rows × 8`` bytes; ``None`` when it keeps none).  Shard
    ``b``'s slice holds its scores once ``filled[b]`` is set — the slice is
    written first — and ``complete`` once all ``n_filled`` shards' do;
    nothing is ever evicted.  The service replaces the whole object in one assignment, so a
    score computed on one manifest generation never answers a lookup that
    started on the next.
    """

    __slots__ = ("store", "scores", "filled", "n_filled", "complete")

    def __init__(self, store: FeatureStore | None, keeps_scores: bool):
        self.store = store
        kept = keeps_scores and store is not None
        self.scores = np.empty(store.n_rows) if kept else None
        self.filled = np.zeros(store.n_shards, dtype=bool) if kept else None
        self.n_filled = 0
        self.complete = False


class PredictionService:
    """Serve single-row and bulk predictions from a trained model.

    Parameters
    ----------
    model:
        Any :mod:`repro.ml.models` model (``predict`` over a batch).
    store:
        Feature store resolving row ids; optional — a store-less service
        still answers feature-vector requests.
    max_batch_size / max_wait_seconds:
        Micro-batching knobs (``max_batch_size=1`` disables coalescing).
    cache_size:
        0 disables the cache.  For a model built on ``A·v`` any positive value
        keeps a score array of ``n_rows × 8`` bytes, filled a shard at a time
        and never evicted; for a network it is the number of row predictions
        an LRU keeps, keyed by row id.
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
        cache_size: int = 0,
        max_queue: int | None = None,
    ):
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.model = model
        self.cache_size = cache_size
        self._svc_id = next(_SVC_IDS)
        # Serialises generation reopens; the store handle itself is
        # swapped atomically so readers never need this lock.
        self._reopen_lock = threading.Lock()
        # Re-entrant: the metrics share this lock, so a stats mutator called
        # while the service already holds it must be able to re-acquire.
        self._lock = threading.RLock()  # guards stats and score fills; the row LRU self-locks
        self.stats = ServiceStats(self._lock, self._svc_id)
        # Whole-shard scoring is for models whose prediction is one ``A·v``; the
        # cache is their score array, and a network's predictions by row id.
        self._scores_shards = "matvec" in getattr(model, "core_ops", ())
        self._caches_scores = self._scores_shards and cache_size > 0
        self._cache: LRUCache | None = (
            LRUCache(cache_size) if cache_size and not self._scores_shards else None
        )
        self._serving = _Serving(store, self._caches_scores)
        # The store's whole-shard counters, kept across store reopens.
        self._shards_scored = obs_metrics.counter("serve.store.shards_scored", svc=self._svc_id)
        self._rows_scored = obs_metrics.counter("serve.store.rows_scored", svc=self._svc_id)
        self._rows_gathered = obs_metrics.counter("serve.store.rows_gathered", svc=self._svc_id)
        self._shards_filled = obs_metrics.gauge("serve.cache.shards", svc=self._svc_id)
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
        cache_size: int = DEFAULT_CACHE_SIZE,
        **kwargs,
    ) -> tuple["PredictionService", Checkpoint]:
        """Build a service from a checkpoint registry (and its shard dir).

        ``shard_dir`` overrides the directory recorded in the checkpoint;
        when neither is available the service runs without a feature store.
        ``cache_size`` defaults to :data:`DEFAULT_CACHE_SIZE`, and ``kwargs``
        go to the constructor.  Returns the service and the resolved
        checkpoint (for provenance).
        """
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        checkpoint = registry.load(version)
        directory = Path(shard_dir) if shard_dir is not None else checkpoint.shard_dir
        store = None
        if directory is not None:
            store = FeatureStore.open(directory)
        return cls(checkpoint.model, store, cache_size=cache_size, **kwargs), checkpoint

    # -- the store handle ------------------------------------------------------

    @property
    def store(self) -> FeatureStore | None:
        """The feature store requests are being answered from right now."""
        return self._serving.store

    # -- batched execution -----------------------------------------------------

    def _handle_batch(self, requests: list) -> list:
        """Worker-side handler: one model invocation for the whole batch."""
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

        vectors = [requests[i][1] for i in vec_slots]

        def answer(slots: list[int], score) -> None:
            if not slots:
                return
            try:
                predictions = score()
            except Exception as exc:  # these requests share one fate; the others keep theirs
                predictions = [exc] * len(slots)
            for i, prediction in zip(slots, predictions):
                outputs[i] = prediction

        if self._caches_scores:  # stored rows come out of the score array, not a model call
            answer(id_slots, lambda: self._on_store(self._score_singles, ids))
            answer(vec_slots, lambda: self._score_dense([], vectors))
        else:  # one matrix: stored rows first, then raw vectors
            answer(id_slots + vec_slots, lambda: self._score_dense(ids, vectors))
        return outputs

    def _score_dense(self, ids: list[int], vectors: list[np.ndarray]) -> list[float]:
        """One model call over decoded stored rows, then raw vectors, as one matrix."""
        matrix = None
        if ids:
            matrix = self._on_store(lambda serving, ids: serving.store.get_rows(ids), ids)
        if vectors:
            matrix = np.vstack(vectors if matrix is None else [matrix, *vectors])
        return self._score(matrix).tolist()

    def _on_store(self, lookup, row_ids):
        """``lookup(serving, row_ids)`` for every row-id path, surviving a generation swap."""
        if self._serving.store is None:
            raise RuntimeError("row-id predictions need a feature store")
        try:
            return lookup(self._serving, row_ids)
        except OSError:
            # A compact/append swapped the manifest and deleted files this
            # store had not mapped yet.  Shards are
            # immutable between swaps and compaction preserves row order,
            # so re-opening at the new generation and retrying is always
            # correct — in-flight requests survive the swap.
            self.reopen_store()
            return lookup(self._serving, row_ids)

    def _shard_scores(self, serving: _Serving, batch_id: int, rows: int) -> tuple[np.ndarray, bool]:
        """The model's predictions for every row of one shard, and whether it had to run.

        The one place a stored shard is scored: a filled slice of the
        service's scores is returned as it is; otherwise ``model.predict``
        runs on the shard's parsed form with the compressed-domain kernels —
        it is never decoded — and, if the service keeps scores, fills the
        shard's slice.  ``rows`` is how many of the shard's rows the caller
        wants.  Two racing misses may both score a shard; the first to take
        the lock fills it, with the same values the second computed.
        """
        store, scores = serving.store, serving.scores
        if scores is not None:
            first, stop = store.row_span(batch_id)
            if serving.filled[batch_id]:
                return scores[first:stop], False
        vector = self._score(store.parsed(batch_id), rows=rows)
        store.count_scored(1, vector.size)
        self._shards_scored.inc()
        self._rows_scored.inc(vector.size)
        if scores is not None:
            with self._lock:
                if not serving.filled[batch_id]:
                    scores[first:stop] = vector  # before the flag: a reader that sees it sees these
                    serving.filled[batch_id] = True
                    serving.n_filled += 1
                    serving.complete = serving.n_filled == serving.filled.size
                    if serving is self._serving:  # the gauge follows the handle in use
                        self._shards_filled.set(serving.n_filled)
        return vector, True

    def _score_singles(self, serving: _Serving, row_ids: list[int]) -> list[float]:
        """A batch's single-row ids out of the stored scores, each missing shard scored once."""
        store = serving.store
        wanted = Counter(store.locate(row_id)[0] for row_id in row_ids)
        misses = sum(
            rows
            for batch_id, rows in wanted.items()
            if self._shard_scores(serving, batch_id, rows)[1]
        )
        store.count_scored(hits=len(row_ids) - misses, misses=misses)
        return serving.scores[row_ids].tolist()

    def _score_ids(self, row_ids: np.ndarray) -> np.ndarray:
        """Predictions for a bulk request of stored rows, in request order."""
        predictions, shards_computed = self._on_store(self._score_stored, row_ids)
        if self._caches_scores:  # a hit is a request the model did not run for
            with self._lock:
                if shards_computed:
                    self.stats.record_cache_miss()
                else:
                    self.stats.record_cache_hit()
        return predictions

    def _score_stored(self, serving: _Serving, ids: np.ndarray) -> tuple[np.ndarray, int]:
        """A bulk request answered out of the stored scores, or per shard without them.

        With stored scores the ids are range-checked first — a negative id
        must never wrap around — then each touched shard not yet filled is
        scored (:meth:`_shard_scores`), and the answer is one gather, so it
        is bit-equal to the single-row one.  Once every shard is filled that
        is the check and the gather alone.  Returns the predictions and how
        many shards had to be scored.
        """
        store, scores = serving.store, serving.scores
        if scores is None:
            return self._score_by_shard(serving, ids)
        check_row_ids(ids, scores.size)  # IndexError before any shard is read
        shards_computed = 0
        if not serving.complete:
            batch_ids, rows = np.unique(store.locate_rows(ids)[0], return_counts=True)
            for batch_id, wanted in zip(batch_ids.tolist(), rows.tolist()):
                shards_computed += self._shard_scores(serving, batch_id, wanted)[1]
        store.count_scored(gathered=ids.size)
        self._rows_gathered.inc(ids.size)
        return scores[ids], shards_computed

    def _score_by_shard(self, serving: _Serving, ids: np.ndarray) -> tuple[np.ndarray, int]:
        """Without stored scores: covered shards scored whole, the scattered rest densely.

        A shard the request covers (:data:`SCORE_WHOLE_COVERAGE`) is scored
        whole and its rows gathered out of the scores; the remainder is
        row-sliced.  Scoring whole pays only for models built on ``A·v``; a
        network's ``A·M`` over a whole shard costs more than decoding all of
        it, so those keep ``row_slice``.
        """
        store = serving.store
        batch_ids, local_rows = store.locate_rows(ids)  # IndexError before any shard is read
        out = np.empty(ids.size, dtype=np.float64)
        rest, shards_computed = [], 0
        for batch_id, positions in group_by_shard(batch_ids):
            covered = positions.size >= SCORE_WHOLE_COVERAGE * store.shard_rows(batch_id)
            if self._scores_shards and covered:
                vector, _ = self._shard_scores(serving, batch_id, positions.size)
                out[positions] = vector[local_rows[positions]]
                shards_computed += 1
            else:
                rest.append(positions)
        rows_gathered = ids.size - sum(positions.size for positions in rest)
        if rows_gathered:
            store.count_scored(gathered=rows_gathered)
            self._rows_gathered.inc(rows_gathered)
        if rest:
            positions = np.concatenate(rest)
            out[positions] = self._score(store.get_rows(ids[positions]))
        return out, shards_computed

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
        A hit submits nothing, so it costs no :class:`Future` either —
        threads, the asyncio surface and the cluster workers all enter here.
        For a linear model a hit is a row whose shard's scores are filled:
        ``float(scores[row_id])``, with no ``locate`` once every shard is;
        for a network it is the row's prediction in the row LRU.  A miss
        resolves from the micro-batcher's thread; stats and the cache fill
        happen there.  ``deadline`` is :meth:`MicroBatcher.submit`'s.
        """
        row_id = as_row_id(row_id)
        start = time.perf_counter()
        serving = self._serving
        store, scores = serving.store, serving.scores
        if store is not None and not 0 <= row_id < store.n_rows:
            failed: Future = Future()
            failed.set_exception(row_out_of_range(row_id, store.n_rows))
            return failed
        if scores is not None:
            if not (serving.complete or serving.filled[store.locate(row_id)[0]]):
                with self._lock:
                    self.stats.record_cache_miss()
                return self._submit(("id", row_id), start, deadline)
            with self._lock:
                self.stats.record_cache_hit()
                self.stats.record_request(time.perf_counter() - start)
            store.count_scored(hits=1)
            return float(scores[row_id])
        if self._cache is not None:
            value = self._cache.get(row_id)
            with self._lock:
                if value is not None:
                    self.stats.record_cache_hit()
                    self.stats.record_request(time.perf_counter() - start)
                    return value
                self.stats.record_cache_miss()
        return self._submit(("id", row_id), start, deadline, row_id)

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

    def _submit(self, request, start: float, deadline, row_id: int | None = None) -> Future:
        """Queue one request; on success its done-callback counts it and, given a
        ``row_id``, fills the per-row prediction cache."""

        def finish(future: Future) -> None:
            try:
                value = future.result()
            except BaseException:  # cancelled, shed or failed: nothing to cache or count
                return
            if row_id is not None and self._cache is not None:
                self._cache.put(row_id, value)
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
        """Bulk path, no queueing: answered by :meth:`_score_stored` on the caller's thread."""
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
        store = self.store
        return store.dataset.generation if store is not None else None

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
                self._serving = _Serving(reopened, self._caches_scores)
                self._shards_filled.set(0)
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
