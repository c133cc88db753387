"""The workloads and the phases every run drives through ``repro.api``.

A workload is one set of inputs: how many rows, which scheme each shard is
encoded with, how hard the trainer's buffer pool is squeezed, and which row
ids the serving clients ask for.  Every workload runs the same phases —
build (ingest, fit, save, open both serving tiers), closed-loop serving on
each tier, two scans, bulk scoring and a fit — so each reports every end-to-end
metric at its own operating point, and a change shows on every workload
that executes the code it touched.

Callers of this system block for the reply, so the serving phases are
closed loops: ``CLIENTS`` threads each send their next request only after
the previous answer arrived.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import DATASET_PROFILES, Dataset, Estimator, open_service

from spans import SpanRecorder

#: Closed-loop client threads, and worker processes of the cluster tier.
CLIENTS = max(1, min(os.cpu_count() or 1, 4))
CLUSTER_WORKERS = max(2, CLIENTS)

BATCH_ROWS = 250
HOT_SET_ROWS = 128
BULK_CHUNK_ROWS = 1000
#: Ids drawn per client; a client that outruns its trace starts it again.
TRACE_IDS = 1 << 17
AGG_WHERE = "c0 >= 0.5"
AGG_SPEC = "count,sum:c5,mean:c5"
SELECT_COLUMNS = [0, 1, 2]


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    epochs: int
    budget_ratio: float
    #: Scheme per batch, cycled: one name encodes every shard alike.
    schemes: tuple[str, ...]
    #: Share of serving requests drawn from the fixed hot set.
    hot_share: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve_cold", rows=24_000, epochs=2, budget_ratio=0.25, schemes=("TOC",), hot_share=0.0,
        ),
        Workload(
            "serve_hot", rows=24_000, epochs=2, budget_ratio=0.5, schemes=("TOC",), hot_share=0.9,
        ),
        Workload(
            "scan_bulk", rows=24_000, epochs=2, budget_ratio=0.5, schemes=("TOC", "CVI"), hot_share=0.0,
        ),
    )
}


@dataclass(frozen=True)
class Lengths:
    """How long a run measures; ``--quick`` and the traced run shorten it."""

    seconds: float
    builds: int = 3
    ingest_samples: int = 2  # per build
    window_s: float = 0.25
    warmup_s: float = 0.2
    rung_seconds: float = 0.2
    rows: int | None = None  # overrides the workload's row count

    @property
    def rounds_per_lap(self) -> int:
        """A round is one window per tier, one pass of each scan and one fit:
        two windows of serving, and as long again allowed for the rest."""
        rounds = max(self.builds, round(self.seconds / (4 * self.window_s)))
        return math.ceil(rounds / self.builds)


@dataclass
class Tally:
    """Operations attempted and failed; a failed one misses every latency figure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)


@dataclass
class Inputs:
    """Everything derived from ``--seed``: the rows and the clients' id traces."""

    features: np.ndarray
    labels: np.ndarray
    traces: list[list[int]]
    hot_set: np.ndarray
    select_where: str
    sample_ids: np.ndarray
    #: Hash of the generated rows: a change to the generator shows in every result.
    digest: str
    #: Where each client stopped in its trace, so the next phase asks for new ids.
    cursors: list[int] = field(default_factory=lambda: [0] * CLIENTS)

    @property
    def rows(self) -> int:
        return self.features.shape[0]

    @property
    def raw_bytes(self) -> int:
        return self.features.nbytes + self.labels.nbytes


def make_inputs(workload: Workload, seed: int, rows: int | None = None) -> Inputs:
    rows = rows or workload.rows
    features, labels = DATASET_PROFILES["census"].classification(rows, seed=seed)
    rng = np.random.default_rng([seed, 1])
    hot_set = rng.choice(rows, size=min(HOT_SET_ROWS, rows), replace=False)
    traces = []
    for _ in range(CLIENTS):
        ids = rng.integers(0, rows, size=TRACE_IDS)
        hot = rng.random(TRACE_IDS) < workload.hot_share
        ids[hot] = hot_set[rng.integers(0, hot_set.size, size=int(hot.sum()))]
        traces.append(ids.tolist())
    threshold = float(np.percentile(features[:, 0], 95))
    return Inputs(
        features=features,
        labels=labels,
        traces=traces,
        hot_set=hot_set,
        select_where=f"c0 >= {threshold!r}",
        sample_ids=rng.integers(0, rows, size=min(2000, rows)),
        digest=hashlib.sha256(features.data).hexdigest()[:16],
    )


@dataclass
class Built:
    """One completed build: the dataset, the fitted estimator, both tiers."""

    directory: Path
    dataset: Dataset
    estimator: Estimator
    fit_report: object
    service: object
    cluster: object
    seconds: dict[str, float]

    @property
    def checkpoint_dir(self) -> Path:
        return self.directory / "checkpoints"

    def close(self) -> float:
        """Close both tiers; returns the cluster's drain-and-reap time."""
        self.service.close()
        start = time.perf_counter()
        self.cluster.close(drain=True)
        return time.perf_counter() - start


def make_estimator(workload: Workload, budget_ratio: float) -> Estimator:
    """The workload's model, its buffer pool sized to ``budget_ratio`` of the payload."""
    return Estimator(
        "logreg", epochs=workload.epochs, budget_ratio=budget_ratio, batch_size=BATCH_ROWS)


def build(directory: Path, workload: Workload, inputs: Inputs, recorder: SpanRecorder) -> Built:
    """Raw rows in memory to both serving tiers answering, timed stage by stage."""
    stages = {}

    def stage(name: str):
        stages[name] = recorder.span(name, phase="build")
        return stages[name]

    checkpoints = directory / "checkpoints"
    with stage("build"):
        with stage("api.dataset_create_s"):
            dataset = Dataset.create(
                directory / "shards", inputs.features, inputs.labels,
                scheme=_schemes(workload, inputs.rows), batch_size=BATCH_ROWS, shuffle=False,
            )
        with stage("api.fit_s"):
            estimator = make_estimator(workload, workload.budget_ratio)
            fit_report = estimator.fit(dataset)
        with stage("api.save_ms"):
            estimator.save(checkpoints)
        with stage("api.open_service_ms"):
            service, _ = open_service(checkpoints)
        try:
            with stage("api.first_predict_ms"):
                service.predict_id(0)
            with stage("cluster.server.start_s"):
                cluster, _ = open_service(checkpoints, workers=CLUSTER_WORKERS)
                try:
                    cluster.ping()
                except BaseException:
                    cluster.close(drain=False)
                    raise
        except BaseException:
            service.close()
            raise
    seconds = {name: span.seconds for name, span in stages.items()}
    return Built(directory, dataset, estimator, fit_report, service, cluster, seconds)


def ingest_sample(directory: Path, workload: Workload, inputs: Inputs) -> tuple[int, float]:
    """Rows and seconds of one ``Dataset.create`` over the first half of the rows.

    The encode pool forks, so this runs between builds, when no service
    thread is alive.
    """
    rows = inputs.rows // 2
    remove_tree(directory)
    began = time.perf_counter()
    Dataset.create(
        directory, inputs.features[:rows], inputs.labels[:rows],
        scheme=_schemes(workload, rows), batch_size=BATCH_ROWS, shuffle=False,
    )
    seconds = time.perf_counter() - began
    remove_tree(directory)
    return rows, seconds


def _schemes(workload: Workload, rows: int):
    """One scheme name, or the per-batch list when the workload mixes schemes."""
    if len(workload.schemes) == 1:
        return workload.schemes[0]
    batches = math.ceil(rows / BATCH_ROWS)
    return [workload.schemes[i % len(workload.schemes)] for i in range(batches)]


def directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


# -- the reference pass -----------------------------------------------------------

#: What one reference pass takes on the builder's box at its median speed.
REFERENCE_NOMINAL_S = 0.048


class Reference:
    """A fixed workload that runs nothing of the system, timed beside every sample.

    The box's speed drifts by a fifth and more over minutes and every phase
    drifts with it, so a timing says as much about the minute it was taken in
    as about the program.  One pass is the kind of work the system does —
    gathers, prefix sums, counts and a small product over shard-sized NumPy
    arrays, then a stretch of plain interpreter — and never changes.  Every
    timed sample is reported at the speed the passes next to it say the box
    had: seconds taken at 0.8 of nominal count as 0.8 of them.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._index = rng.integers(0, 4096, size=4096)
        self._values = rng.random(4096)
        self.seconds: list[float] = []

    def sample(self) -> float:
        """Time one pass; returns the box's speed as a share of nominal (above 1 is faster)."""
        index, values = self._index, self._values
        began = time.perf_counter()
        for _ in range(1000):
            gathered = values[index]
            sums = np.cumsum(gathered)
            np.bincount(index, minlength=4096)
            gathered.reshape(64, 64) @ sums[:64]
        total = 0
        for i in range(200_000):
            total += i * i
        self.seconds.append(time.perf_counter() - began)
        return REFERENCE_NOMINAL_S / self.seconds[-1]


# -- closed-loop serving --------------------------------------------------------


@dataclass
class Tier:
    """What one serving tier answered over the run's timed windows.

    ``speeds`` holds the box's speed at each window; rates and latencies are
    at the reference speed, the ``raw_`` ones as the clock read them.
    """

    seconds: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    #: Per window, the latencies of its successful requests, in seconds.
    latencies: list[np.ndarray] = field(default_factory=list)

    def add(self, latencies: np.ndarray, seconds: float, speed: float) -> None:
        self.latencies.append(latencies)
        self.seconds.append(seconds)
        self.speeds.append(speed)

    @property
    def requests(self) -> int:
        return sum(w.size for w in self.latencies)

    @property
    def rps(self) -> float:
        return self.requests / sum(s * v for s, v in zip(self.seconds, self.speeds))

    @property
    def raw_rps(self) -> float:
        return self.requests / sum(self.seconds)

    @property
    def window_rps(self) -> list[float]:
        return [w.size / (s * v) for w, s, v in zip(self.latencies, self.seconds, self.speeds)]

    @property
    def window_p95_ms(self) -> list[float]:
        return [float(np.percentile(w, 95)) * 1e3 * v
                for w, v in zip(self.latencies, self.speeds) if w.size]

    @property
    def p95_ms(self) -> float:
        """The median window's p95: one stalled window moves the pooled tail, not this."""
        return float(np.median(self.window_p95_ms))

    @property
    def raw_p95_ms(self) -> float:
        return float(np.median([np.percentile(w, 95) for w in self.latencies if w.size])) * 1e3

    def pooled(self) -> np.ndarray:
        return np.concatenate(self.latencies)

    def percentile_ms(self, q: float) -> float:
        """Of every timed request of the tier, as the clock read them."""
        return float(np.percentile(self.pooled(), q)) * 1e3


@dataclass
class Passes:
    """Work done and seconds taken by each timed pass of one phase, with the
    box's speed at each; rates are at the reference speed, ``raw_rate`` as
    the clock read."""

    work: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)

    def add(self, work: int, seconds: float, speed: float) -> None:
        self.work.append(work)
        self.seconds.append(seconds)
        self.speeds.append(speed)

    @property
    def rate(self) -> float:
        return sum(self.work) / sum(s * v for s, v in zip(self.seconds, self.speeds))

    @property
    def raw_rate(self) -> float:
        return sum(self.work) / sum(self.seconds)

    @property
    def rates(self) -> list[float]:
        return [w / (s * v) for w, s, v in zip(self.work, self.seconds, self.speeds)]


def serve_window(
    call, inputs: Inputs, expected: list[float], seconds: float, tally: Tally,
    recorder: SpanRecorder, phase: str, tier: Tier | None = None, span_name: str | None = None,
    speed: float = 1.0,
) -> None:
    """One closed-loop window: ``CLIENTS`` threads each ask for their next id
    once the last answer is in, for ``seconds``.

    A request is timed from the previous answer, so the loop's own overhead
    counts against the system, as it does for a real caller.  Every answer
    is compared with the estimator's own prediction for that row.  Without
    a ``tier`` the window is a warm-up: checked and counted, not sampled;
    with one, the window goes into it at ``speed``.  With a ``span_name``
    every request leaves a span.
    """
    traced = span_name is not None and recorder.enabled
    barrier = threading.Barrier(CLIENTS + 1)
    shared = {}  # set by the main thread before it joins the barrier
    outcomes: list = [None] * CLIENTS

    def client(k: int) -> None:
        ids = inputs.traces[k]
        n = len(ids)
        ends: list[float] = []
        latencies: list[float] = []
        spans: list[tuple[float, float]] | None = [] if traced else None
        cursor = inputs.cursors[k]
        attempted = failed = 0
        error = None
        barrier.wait()
        stop = shared["stop"]
        now = time.perf_counter()
        while now < stop:
            row_id = ids[(cursor + attempted) % n]
            attempted += 1
            began = now
            try:
                ok = call(row_id) == expected[row_id]
            except Exception as exc:  # a refused, shed or timed-out request is a failed one
                ok = False
                error = error or repr(exc)
            now = time.perf_counter()
            if spans is not None:
                spans.append((began, now))
            if ok:
                ends.append(now)
                latencies.append(now - began)
            else:
                failed += 1
                error = error or f"wrong prediction for row {row_id}"
        inputs.cursors[k] = cursor + attempted
        outcomes[k] = (ends, latencies, attempted, failed, error)
        if spans is not None:
            recorder.extend(span_name, spans, shared["span"], phase)

    threads = [threading.Thread(target=client, args=(k,), name=f"bench-client-{k}")
               for k in range(CLIENTS)]
    with recorder.span(phase, phase=phase) as whole:
        for thread in threads:
            thread.start()
        shared["span"] = whole.id
        shared["stop"] = time.perf_counter() + seconds
        barrier.wait()
        for thread in threads:
            thread.join()
    tally.attempted += sum(o[2] for o in outcomes)
    failed = sum(o[3] for o in outcomes)
    if failed:
        tally.fail(f"{phase}: {next(o[4] for o in outcomes if o[4])}", failed)
    if tier is None:
        return
    ends = np.concatenate([np.asarray(o[0]) for o in outcomes])
    latencies = np.concatenate([np.asarray(o[1]) for o in outcomes])
    # An answer that arrived after the window closed belongs to no window.
    tier.add(latencies[ends <= shared["stop"]], seconds, speed)


# -- sequential phases: scans, bulk scoring and fits ------------------------------


def timed_pass(one_pass, passes: Passes, recorder: SpanRecorder, span_name: str, phase: str,
               speed: float = 1.0) -> None:
    """Time one pass into ``passes`` at ``speed``; ``one_pass`` returns the rows it covered."""
    with recorder.span(span_name, phase=phase) as span:
        rows = one_pass()
    passes.add(rows, span.seconds, speed)


def round_passes(built: Built, workload: Workload, inputs: Inputs, expected: np.ndarray,
                 tally: Tally, pushdown: dict) -> dict:
    """The scan, bulk and fit passes of a round by phase name, each checking what it returns.

    ``expected`` is the estimator's own prediction for every row;
    ``pushdown`` collects how many shards the scans answered on the
    compressed form and how many fell back to a dense decode.
    """
    dataset, service = built.dataset, built.service
    features = inputs.features
    select_mask = _mask(features, inputs.select_where)
    select_rows = features[select_mask][:, SELECT_COLUMNS]
    agg_mask = _mask(features, AGG_WHERE)
    agg_count = int(agg_mask.sum())
    agg_sum = float(features[agg_mask, 5].sum())

    def select_pass() -> int:
        result = dataset.scan(where=inputs.select_where, columns=SELECT_COLUMNS)
        tally.check(np.array_equal(result.rows, select_rows), "select scan differs from NumPy")
        pushdown["pushdown"] += result.pushdown_shards
        pushdown["fallback"] += result.fallback_shards
        return result.n_rows_scanned

    def agg_pass() -> int:
        result = dataset.scan(where=AGG_WHERE, agg=AGG_SPEC)
        agg = result.aggregates
        tally.check(
            agg["count"] == agg_count
            and math.isclose(agg["sum(c5)"], agg_sum, rel_tol=1e-9)
            and math.isclose(agg["mean(c5)"], agg_sum / agg_count, rel_tol=1e-9),
            "aggregate scan differs from NumPy",
        )
        pushdown["pushdown"] += result.pushdown_shards
        pushdown["fallback"] += result.fallback_shards
        return result.n_rows_scanned

    def bulk_pass() -> int:
        for start in range(0, inputs.rows, BULK_CHUNK_ROWS):
            stop = min(start + BULK_CHUNK_ROWS, inputs.rows)
            tally.check(
                np.array_equal(service.predict_ids(range(start, stop)), expected[start:stop]),
                f"bulk predictions differ for rows {start}:{stop}",
            )
        return inputs.rows

    def fit_pass() -> int:
        report = make_estimator(workload, workload.budget_ratio).fit(dataset)
        tally.check(report.final_loss == built.fit_report.final_loss,
                    "the same fit reached a different loss")
        return inputs.rows * workload.epochs

    return {"scan_select": select_pass, "scan_agg": agg_pass, "bulk": bulk_pass, "train": fit_pass}


def _mask(features: np.ndarray, where: str) -> np.ndarray:
    """NumPy's answer to the harness's own ``c<i> >= <value>`` predicates."""
    column, _, value = where.partition(" >= ")
    return features[:, int(column[1:])] >= float(value)


def verify_once(built: Built, inputs: Inputs, tally: Tally) -> None:
    """Checks that need not repeat every pass: losslessness, push-down against fallback."""
    dataset = built.dataset
    tally.check(
        np.array_equal(dataset.take(inputs.sample_ids), inputs.features[inputs.sample_ids]),
        "Dataset.take is not bit-equal to the input rows",
    )
    pushed = dataset.scan(where=inputs.select_where, columns=SELECT_COLUMNS)
    dense = dataset.scan(where=inputs.select_where, columns=SELECT_COLUMNS, pushdown=False)
    tally.check(
        np.array_equal(pushed.rows, dense.rows) and np.array_equal(pushed.row_ids, dense.row_ids),
        "pushed-down selection differs from pushdown=False",
    )
    pushed = dataset.scan(where=AGG_WHERE, agg=AGG_SPEC)
    dense = dataset.scan(where=AGG_WHERE, agg=AGG_SPEC, pushdown=False)
    tally.check(
        all(math.isclose(pushed.aggregates[k], dense.aggregates[k], rel_tol=1e-9)
            for k in dense.aggregates),
        "pushed-down aggregate differs from pushdown=False",
    )


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
