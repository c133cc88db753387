"""Out-of-core engine benchmarks: encode fan-out and end-to-end training.

Two questions the engine exists to answer:

1. how much wall-clock does the multi-worker encode pipeline save over
   serial encoding (``test_encode_*`` — the speedup shows up on multi-core
   machines; on a single core the process pool only adds overhead, so the
   speedup assertion is gated on ``os.cpu_count()``);
2. what does streaming shards through the buffer pool cost relative to the
   fully in-memory MGD loop (``test_train_*``).

Every case records a machine-readable row via ``bench_json`` (in CI the
session is named ``BENCH_ooc.json``).  The training rows carry the
per-shard scheme mix read off ``Dataset.stats()``, so a perf regression in
the trajectory can be attributed to a mix change, not just noticed.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import pytest

from repro.api import Dataset
from repro.data.minibatch import split_minibatches
from repro.data.registry import DATASET_PROFILES
from repro.engine import OutOfCoreTrainer, encode_batches
from repro.engine.encode import usable_cpus
from repro.ml.models import LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig, MiniBatchGradientDescent
from repro.compression.registry import get_scheme

ROWS = 2000
BATCH_SIZE = 250
EPOCHS = 2


def _median_seconds(benchmark) -> float | None:
    """Median of the timed rounds, or None under ``--benchmark-disable``."""
    try:
        return float(benchmark.stats.stats.median)
    except AttributeError:
        return None


@pytest.fixture(scope="module")
def ooc_dataset():
    features, labels = DATASET_PROFILES["census"].classification(ROWS, seed=3)
    batches = split_minibatches(features, labels, batch_size=BATCH_SIZE, seed=0)
    return features, labels, batches


@pytest.mark.parametrize("workers", (1, max(2, os.cpu_count() or 2)))
def test_encode_executors(benchmark, bench_json, ooc_dataset, workers):
    """Time the shard encode pipeline in this process and across a pool.

    The row records the kind that ran: a process pinned to one CPU encodes
    in-process whatever ``workers`` says.
    """
    _, _, batches = ooc_dataset
    feature_batches = [x for x, _ in batches]

    encoded, kind = benchmark.pedantic(
        encode_batches,
        args=(feature_batches, "TOC"),
        kwargs=dict(workers=workers),
        rounds=3,
        iterations=1,
    )
    bench_json(
        "encode",
        executor=kind,
        workers=workers,
        batches=len(feature_batches),
        payload_bytes=sum(e.nbytes for e in encoded),
        scheme_mix=dict(Counter(e.scheme for e in encoded)),
        median_seconds=_median_seconds(benchmark),
    )


def test_encode_parallel_speedup(bench_json, ooc_dataset):
    """Parallel encode beats serial when real cores are available."""
    _, _, batches = ooc_dataset
    # Enough work to amortise pool start-up: a batch encodes in ~2.5 ms, so the
    # fork + task pickling of a 2-worker pool (~0.1 s) needs ~100+ batches.
    feature_batches = [x for x, _ in batches] * 24
    # The CPUs this process may run on, as the encoder itself counts them:
    # a process pinned to one CPU encodes in-process whatever ``workers`` says.
    cpus = usable_cpus()
    workers = max(2, cpus)

    def timed(**kwargs):
        # Best of two rounds: damps scheduler noise on shared CI runners.
        samples = []
        for _ in range(2):
            start = time.perf_counter()
            encoded, _ = encode_batches(feature_batches, "TOC", **kwargs)
            samples.append(time.perf_counter() - start)
        return encoded, min(samples)

    serial, serial_s = timed(workers=1)
    parallel, parallel_s = timed(workers=workers)

    assert [e.payload for e in serial] == [e.payload for e in parallel]
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    bench_json(
        "encode_speedup",
        workers=workers,
        cpu_count=os.cpu_count(),
        usable_cpus=cpus,
        serial_seconds=serial_s,
        parallel_seconds=parallel_s,
        speedup=speedup,
    )
    if cpus < 2:
        # The row above still lands in the JSON; only the expectation is
        # waived — a single usable CPU has no parallel win to measure.
        pytest.skip("one usable CPU: parallel encode speedup not expected")
    if speedup <= 1.0:
        # xfail, not a hard assert: on a loaded shared runner the pool
        # start-up can eat the win for this small workload, and the smoke
        # job must not block unrelated PRs on scheduler noise.  The recorded
        # JSON row above still tracks the real speedup per run.
        pytest.xfail(
            f"parallel encode ({parallel_s:.3f}s with {workers} workers) not faster than "
            f"serial ({serial_s:.3f}s) on {cpus} usable CPUs — noisy runner?"
        )


def test_train_in_memory(benchmark, bench_json, ooc_dataset):
    """Baseline: the fully in-memory MGD loop over TOC batches."""
    features, labels, _ = ooc_dataset
    config = GradientDescentConfig(batch_size=BATCH_SIZE, epochs=EPOCHS, learning_rate=0.3)

    def run():
        model = LogisticRegressionModel(features.shape[1], seed=0)
        return MiniBatchGradientDescent(config).fit(model, features, labels, get_scheme("TOC"))

    history = benchmark.pedantic(run, rounds=3, iterations=1)
    bench_json(
        "train_in_memory",
        epochs=EPOCHS,
        final_loss=history.final_loss,
        median_seconds=_median_seconds(benchmark),
    )


@pytest.mark.parametrize("scheme", ("TOC", "auto"))
def test_train_out_of_core(benchmark, bench_json, ooc_dataset, tmp_path_factory, scheme):
    """The streaming engine: shard once, then train through the buffer pool.

    Runs once with a fixed TOC encode and once with per-shard ``"auto"``
    advice; both rows carry ``Dataset.stats()`` provenance (scheme mix,
    compression ratio) so the perf trajectory can attribute a regression to
    the mix changing under the advisor, not just to the kernels.
    """
    features, labels, _ = ooc_dataset
    config = GradientDescentConfig(batch_size=BATCH_SIZE, epochs=EPOCHS, learning_rate=0.3)
    dataset = Dataset.create(
        tmp_path_factory.mktemp(f"ooc-shards-{scheme}"),
        features,
        labels,
        scheme=scheme,
        batch_size=BATCH_SIZE,
        seed=0,
    )
    trainer = OutOfCoreTrainer(config, budget_ratio=0.5)
    trainer.attach(dataset.sharded)

    def run():
        model = LogisticRegressionModel(features.shape[1], seed=0)
        return trainer.train(model)

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    stats = dataset.stats()
    bench_json(
        "train_out_of_core",
        epochs=EPOCHS,
        requested_scheme=scheme,
        final_loss=report.final_loss,
        fits_in_memory=report.fits_in_memory,
        hit_rate=report.pool_stats.hit_rate,
        payload_bytes=report.total_payload_bytes,
        budget_bytes=report.budget_bytes,
        scheme_mix=stats.scheme_counts,
        compression_ratio=stats.compression_ratio,
        median_seconds=_median_seconds(benchmark),
    )
