"""One run of one workload: build, serve, scan, score, verify — and, traced, the ladder.

``run_workload`` measures the end-to-end metrics with tracing off.
``run_traced`` repeats the workload shorter with spans on and adds the
layer ladder; it measures the in-process serving phase both ways, and the
difference is what recording the spans costs.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from pipeline import (
    CLIENTS,
    CLUSTER_WORKERS,
    REFERENCE_NOMINAL_S,
    WORKLOADS,
    Built,
    Inputs,
    Lengths,
    Passes,
    Reference,
    Tally,
    Tier,
    build,
    directory_bytes,
    ingest_sample,
    make_inputs,
    remove_tree,
    round_passes,
    serve_window,
    timed_pass,
    verify_once,
)
from spans import SpanRecorder

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
OVERHEAD_PAIRS = 3


class _Session:
    """One build at a time, with its two serving tiers; torn down on exit."""

    def __init__(self, workload, inputs: Inputs, recorder: SpanRecorder):
        self.workload = workload
        self.inputs = inputs
        self.recorder = recorder
        self.root = OUT_DIR / "tmp" / f"{workload.name}-{os.getpid()}"
        self.built: Built | None = None
        self.build_seconds: list[dict] = []
        self.final_losses: list[float] = []
        self.cluster_close_s = 0.0

    def __enter__(self) -> "_Session":
        remove_tree(self.root)
        return self

    def rebuild(self) -> Built:
        """Make the next build from the raw rows; the last one must be dropped."""
        directory = self.root / f"build{len(self.build_seconds)}"
        self.built = build(directory, self.workload, self.inputs, self.recorder)
        self.build_seconds.append(self.built.seconds)
        self.final_losses.append(self.built.fit_report.final_loss)
        return self.built

    def drop_build(self) -> None:
        if self.built is not None:
            built, self.built = self.built, None
            try:
                self.cluster_close_s = built.close()
            finally:
                remove_tree(built.directory)

    def __exit__(self, *exc_info) -> None:
        try:
            self.drop_build()
        finally:
            remove_tree(self.root)


@dataclass
class _Samples:
    """Every timed window and pass of a run, whichever lap it ran in."""

    inproc: Tier = field(default_factory=Tier)
    cluster: Tier = field(default_factory=Tier)
    #: The in-process tier once more with no span per request (traced run only).
    inproc_spanless: Tier = field(default_factory=Tier)
    #: Whole builds, one unit of work each.
    builds: Passes = field(default_factory=Passes)
    ingest: Passes = field(default_factory=Passes)
    train: Passes = field(default_factory=Passes)
    scan_select: Passes = field(default_factory=Passes)
    scan_agg: Passes = field(default_factory=Passes)
    bulk: Passes = field(default_factory=Passes)
    pushdown: dict = field(default_factory=lambda: {"pushdown": 0, "fallback": 0})
    #: What the in-process tier's own counters moved by during its timed windows.
    inproc_counts: Counter = field(default_factory=Counter)


def _serve_counts(service) -> Counter:
    stats, store = service.stats.snapshot(), service.store_stats
    return Counter(
        requests=stats.requests, cache_hits=stats.cache_hits, cache_misses=stats.cache_misses,
        parses=store.payload_parses, row_hits=store.row_hits, row_misses=store.row_misses,
    )


def _lap(built: Built, workload, inputs: Inputs, lengths: Lengths, tally: Tally,
         recorder: SpanRecorder, samples: _Samples, first: bool,
         reference: Reference | None = None) -> None:
    """Warm one build's tiers up, then take ``lengths.rounds_per_lap`` rounds of samples.

    The first lap also runs the checks that need no repeating, which leave
    the scan and bulk code paths warm; every pass of every lap still checks
    what it returns.

    A round visits every phase once, so each metric's samples are spread
    over the whole run and all of them see the same machine: this box's
    speed drifts by a tenth or more over a few seconds, and a phase
    measured in one block would report the drift as its own.  With a
    ``reference``, a pass of it heads every round and the round's samples
    are taken at the speed it shows.
    """
    predictions = np.asarray(built.estimator.predict(inputs.features), dtype=np.float64)
    expected = predictions.tolist()
    passes = round_passes(built, workload, inputs, predictions, tally, samples.pushdown)
    if first:
        verify_once(built, inputs, tally)
        passes["bulk"]()
    inproc, cluster = built.service.predict_id, built.cluster.predict
    speed = 1.0

    def window(call, phase, tier=None, span_name=None):
        seconds = lengths.window_s if tier is not None else lengths.warmup_s
        counted = tier is samples.inproc
        before = _serve_counts(built.service) if counted else None
        serve_window(call, inputs, expected, seconds, tally, recorder, phase, tier, span_name, speed)
        if counted:
            samples.inproc_counts += _serve_counts(built.service) - before

    window(inproc, "warmup")
    window(cluster, "warmup")
    for _ in range(lengths.rounds_per_lap):
        if reference is not None:
            speed = reference.sample()
        # Traced, the in-process window runs in alternating pairs, with and
        # without a span per request; one pair is too few to see a span's cost.
        for _ in range(OVERHEAD_PAIRS if recorder.enabled else 1):
            if recorder.enabled:
                window(inproc, "inproc", samples.inproc_spanless)
            window(inproc, "inproc", samples.inproc, "api.predict_id.inproc")
        window(cluster, "cluster", samples.cluster, "api.predict_id.cluster")
        for phase, one_pass in passes.items():
            timed_pass(one_pass, getattr(samples, phase), recorder, f"api.{phase}", phase, speed)


def _metric(value: float, unit: str, raw=None, windows=None) -> dict:
    """``value`` and ``windows`` at the reference speed; ``raw`` is what the clock read."""
    out = {"value": float(value), "unit": unit}
    if windows is not None:
        out["raw"] = float(raw)
        out["windows"] = [float(w) for w in windows]
    return out


def _result(name, seed, traced, tally, metrics, phases) -> dict:
    return {
        "workload": name, "seed": seed, "traced": traced,
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures, "metrics": metrics, "phases": phases,
    }


def run_workload(name: str, seed: int, lengths: Lengths, units: dict[str, str]) -> dict:
    """The end-to-end metrics of one workload, tracing off; ``units`` by declared metric."""
    workload = WORKLOADS[name]
    recorder = SpanRecorder(False, name)
    tally = Tally()
    samples = _Samples()
    reference = Reference()
    began = time.perf_counter()
    inputs = make_inputs(workload, seed, lengths.rows)
    generate_s = time.perf_counter() - began

    with _Session(workload, inputs, recorder) as session:
        # Untimed: the first create and the first reference pass of a process are slow ones.
        ingest_sample(session.root / "ingest", workload, inputs)
        reference.sample()
        for lap in range(lengths.builds):
            # The encode pool forks: no service thread may be alive when it does.
            session.drop_build()
            # Creates and the build are each taken at the mean of the passes either side.
            before = reference.sample()
            for _ in range(lengths.ingest_samples):
                rows, seconds = ingest_sample(session.root / "ingest", workload, inputs)
                after = reference.sample()
                samples.ingest.add(rows, seconds, (before + after) / 2)
                before = after
            built = session.rebuild()
            samples.builds.add(1, built.seconds["build"], (before + reference.sample()) / 2)
            _lap(built, workload, inputs, lengths, tally, recorder, samples, lap == 0, reference)
        stored = directory_bytes(built.dataset.path) / inputs.raw_bytes
    tally.check(len(set(session.final_losses)) == 1, "the same fit reached different losses")

    inproc, cluster, builds = samples.inproc, samples.cluster, samples.builds
    setup = [s * v for s, v in zip(builds.seconds, builds.speeds)]
    # value at the reference speed, value as the clock read, samples at the reference speed
    values = {
        "setup_s": (np.median(setup), np.median(builds.seconds), setup),
        "ingest_rows_per_s": (samples.ingest.rate, samples.ingest.raw_rate, samples.ingest.rates),
        "train_rows_per_s": (samples.train.rate, samples.train.raw_rate, samples.train.rates),
        "stored_bytes_per_raw_byte": (stored, stored, [stored]),
        "inproc_rps": (inproc.rps, inproc.raw_rps, inproc.window_rps),
        "inproc_p95_ms": (inproc.p95_ms, inproc.raw_p95_ms, inproc.window_p95_ms),
        "cluster_rps": (cluster.rps, cluster.raw_rps, cluster.window_rps),
        "cluster_p95_ms": (cluster.p95_ms, cluster.raw_p95_ms, cluster.window_p95_ms),
        "scan_select_rows_per_s": (
            samples.scan_select.rate, samples.scan_select.raw_rate, samples.scan_select.rates),
        "scan_agg_rows_per_s": (
            samples.scan_agg.rate, samples.scan_agg.raw_rate, samples.scan_agg.rates),
        "bulk_rows_per_s": (samples.bulk.rate, samples.bulk.raw_rate, samples.bulk.rates),
    }
    return _result(
        name, seed, False, tally,
        {k: _metric(v, units[k], raw, w) for k, (v, raw, w) in values.items()},
        {
            "clients": CLIENTS,
            "cluster_workers": CLUSTER_WORKERS,
            "rows": inputs.rows,
            "epochs": workload.epochs,
            "input_digest": inputs.digest,
            "generate_s": generate_s,
            "train_final_loss": session.final_losses[0],
            "reference": {
                "nominal_s": REFERENCE_NOMINAL_S,
                "speed": REFERENCE_NOMINAL_S / float(np.median(reference.seconds)),
                "pass_s": reference.seconds,
            },
            "samples": {
                "builds": len(builds.seconds),
                "ingest_creates": len(samples.ingest.seconds),
                "fits": len(samples.train.seconds),
                "reference_passes": len(reference.seconds),
                "windows_per_tier": len(inproc.seconds),
                "inproc_requests": inproc.requests,
                "cluster_requests": cluster.requests,
                "passes_per_scan": len(samples.bulk.seconds),
            },
        },
    )


def run_traced(name: str, seed: int, lengths: Lengths, units: dict[str, str]) -> dict:
    """The per-layer metrics of one workload: spans on, one short lap, then the ladder."""
    workload = WORKLOADS[name]
    recorder = SpanRecorder(True, name)
    tally = Tally()
    samples = _Samples()
    inputs = make_inputs(workload, seed, lengths.rows)
    out: dict[str, float] = {}

    with _Session(workload, inputs, recorder) as session:
        built = session.rebuild()
        seconds = session.build_seconds[0]
        _lap(built, workload, inputs, lengths, tally, recorder, samples, first=True)
        inproc, cluster, spanless = samples.inproc, samples.cluster, samples.inproc_spanless

        # serve: the in-process tier's own counters over everything it answered
        counts = samples.inproc_counts
        cache_hit_share = counts["cache_hits"] / (counts["cache_hits"] + counts["cache_misses"])
        out["obs.trace_overhead_share"] = (spanless.rps - inproc.rps) / spanless.rps
        out["serve.service.cache_hit_share"] = cache_hit_share
        out["serve.feature_store.parses_per_request"] = counts["parses"] / counts["requests"]
        out["serve.feature_store.row_hit_share"] = (
            counts["row_hits"] / (counts["row_hits"] + counts["row_misses"]))
        out["serve.service.predict_id_p50_us"] = inproc.percentile_ms(50) * 1e3
        out["serve.service.predict_p99_ms"] = inproc.percentile_ms(99)
        out["serve.service.predict_ids_row_us"] = 1e6 / samples.bulk.rate
        out["serve.batcher.mean_batch_size"] = built.service.batcher_stats.mean_batch_size
        waits = built.service.metrics()["histograms"]["serve.queue.wait_seconds"]
        out["serve.batcher.queue_wait_p50_us"] = waits["p50"] * 1e6

        # cluster: dispatcher-side latencies, and what the workers counted
        out["cluster.server.predict_p50_us"] = cluster.percentile_ms(50) * 1e3
        out["cluster.server.predict_p99_ms"] = cluster.percentile_ms(99)
        counters = built.cluster.metrics()["counters"]
        shed = (counters["cluster.server.shed"] + counters["cluster.server.rejected"]
                + _sum(counters, "cluster.worker.shed"))
        out["cluster.server.shed_share"] = shed / counters["cluster.server.requests"]
        out["cluster.worker.cache_hit_share"] = (
            _sum(counters, "cluster.worker.cache_hits") / _sum(counters, "cluster.worker.requests"))
        scanned = samples.pushdown
        out["exec.scan.pushdown_share"] = (
            scanned["pushdown"] / (scanned["pushdown"] + scanned["fallback"]))

        # engine and storage: the build's own fit against one with room for every shard
        report = built.fit_report
        pool = report.ooc.pool_stats
        out["engine.trainer.epoch_s_spill"] = float(np.median(report.history.epoch_times))
        with recorder.span("engine.trainer.inpool_fit", phase=layers.PHASE):
            out["engine.trainer.epoch_s_inpool"], inpool_loss = layers.inpool_fit(built, workload)
        tally.check(inpool_loss == report.final_loss,
                    "spill and in-pool fits reach different losses")
        out["storage.buffer_pool.hit_share"] = pool.hit_rate
        out["storage.buffer_pool.bytes_read_per_payload_byte"] = pool.bytes_read_from_disk / (
            report.ooc.total_payload_bytes * workload.epochs)

        with recorder.span("ladder", phase=layers.PHASE):
            out.update(layers.measure(built, inputs, workload,
                                      layers.Ladder(recorder, lengths.rung_seconds), tally))
        # What of a request no rung explains: a prediction-cache hit costs the
        # LRU alone, a miss the store, the model and the batcher hand-off too.
        miss = (out["serve.feature_store.get_row_cold_us"] + out["ml.predict_row_us"]
                + out["serve.batcher.roundtrip_us"])
        rungs = out["serve.lru.get_put_us"] + (1 - cache_hit_share) * miss
        out["serve.service.unattributed_share"] = 1 - rungs / (float(inproc.pooled().mean()) * 1e6)

        for stage in ("api.dataset_create_s", "api.fit_s", "cluster.server.start_s"):
            out[stage] = seconds[stage]
        for stage in ("api.save_ms", "api.open_service_ms", "api.first_predict_ms"):
            out[stage] = seconds[stage] * 1e3
    out["cluster.server.close_s"] = session.cluster_close_s

    trace_path = recorder.write_chrome(OUT_DIR / f"trace-{name}-seed{seed}.json")
    return _result(
        name, seed, True, tally, {k: _metric(v, units[k]) for k, v in out.items()},
        {
            "clients": CLIENTS,
            "rows": inputs.rows,
            "input_digest": inputs.digest,
            "train_final_loss": session.final_losses[0],
            "spans": len(recorder.spans),
            "chrome_trace": str(trace_path.relative_to(BENCH_DIR.parent)),
        },
    )


def _sum(counters: dict, prefix: str) -> float:
    return sum(v for k, v in counters.items() if k.startswith(prefix))
