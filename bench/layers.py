"""The layer ladder: the workload's own shards and ids, one layer at a time.

Each rung calls one layer's public functions directly, on the shards the
workload built and the row ids its clients ask for, and records one span
per call.  The difference between rungs attributes a request: what
``FeatureStore.get_rows`` costs beyond parse + row_slice is the store's own
bookkeeping, what ``predict_id`` costs beyond the store and the model is
Future, lock and batcher hand-off.  Counts and shares come from the
system's public stats, read where the work happened.
"""

from __future__ import annotations

import asyncio
import copy
import socket
import time
from itertools import cycle

import numpy as np

from repro import exec as kernels
from repro.api import AsyncPredictionService, ModelRegistry, get_scheme
from repro.cluster.protocol import recv_frame, send_frame
from repro.engine.shards import ShardedDataset
from repro.exec.scan import scan_shards
from repro.serve.batcher import MicroBatcher
from repro.serve.feature_store import FeatureStore
from repro.serve.lru import LRUCache
from repro.storage.buffer_pool import BufferPool

from pipeline import (
    AGG_SPEC,
    AGG_WHERE,
    BATCH_ROWS,
    CLIENTS,
    SELECT_COLUMNS,
    Built,
    Inputs,
    Tally,
    make_estimator,
)
from spans import SpanRecorder

PHASE = "ladder"
#: Shards a rung cycles through; enough that none is served from a warm cache line twice in a row.
LADDER_SHARDS = 32
ASYNC_IDS = 2000
#: A rung of microsecond calls stops here: the median is settled and the trace stays loadable.
RUNG_MAX_CALLS = 2000


class Ladder:
    def __init__(self, recorder: SpanRecorder, rung_seconds: float):
        self.recorder = recorder
        self.rung_seconds = rung_seconds

    def rung(self, name: str, call, args, prepare=None) -> float:
        """Median seconds of ``call(arg)`` over ``args``, cycled for ``rung_seconds``.

        ``prepare(arg)`` runs untimed before each call and its result is what
        ``call`` receives: how a rung gets a freshly parsed shard every time.
        """
        samples = []
        began = time.perf_counter()
        for arg in cycle(args):
            if prepare is not None:
                arg = prepare(arg)
            with self.recorder.span(name, phase=PHASE) as span:
                call(arg)
            samples.append(span.seconds)
            if len(samples) >= RUNG_MAX_CALLS or (
                    len(samples) >= 5 and time.perf_counter() - began > self.rung_seconds):
                break
        return float(np.median(samples))


def measure(built: Built, inputs: Inputs, workload, ladder: Ladder, tally: Tally) -> dict:
    """Every rung that needs nothing but the build; values in the metric's own unit."""
    sharded: ShardedDataset = built.dataset.sharded
    model = built.estimator.model
    features = inputs.features
    shard_ids = list(range(min(LADDER_SHARDS, len(sharded))))
    toc_ids = [i for i in shard_ids if sharded.shards[i].scheme == "TOC"]
    cold_ids = inputs.traces[0][:4096] if workload.hot_share == 0 else (
        np.random.default_rng(0).integers(0, inputs.rows, size=4096).tolist())
    out = {}

    # compression: encode one batch, parse one payload
    toc = get_scheme("TOC")
    batches = [features[i * BATCH_ROWS:(i + 1) * BATCH_ROWS] for i in shard_ids[:8]]
    out["compression.encode_batch_ms"] = 1e3 * ladder.rung(
        "compression.encode_batch", lambda b: toc.compress(b).to_bytes(), batches)
    payloads = {i: sharded.read_payload(i) for i in shard_ids}
    out["compression.parse_us"] = 1e6 * ladder.rung(
        "compression.parse", lambda i: sharded.decode(i, payloads[i]), shard_ids)
    out["compression.payload_ratio"] = built.dataset.stats().compression_ratio

    # exec: the kernels MGD and row lookups run on a parsed TOC batch
    parsed = [sharded.decode(i, payloads[i]) for i in toc_ids]
    rng = np.random.default_rng(0)
    right_v, left_v = rng.normal(size=features.shape[1]), rng.normal(size=BATCH_ROWS)
    right_m, left_m = rng.normal(size=(features.shape[1], 16)), rng.normal(size=(16, BATCH_ROWS))
    for name, op, operand in (
        ("exec.matvec_us", kernels.matvec, right_v),
        ("exec.rmatvec_us", kernels.rmatvec, left_v),
        ("exec.matmat_us", kernels.matmat, right_m),
        ("exec.rmatmat_us", kernels.rmatmat, left_m),
    ):
        out[name] = 1e6 * ladder.rung(name[:-3], lambda m, op=op, x=operand: op(m, x), parsed)
    out["exec.row_slice_first_us"] = 1e6 * ladder.rung(
        "exec.row_slice_first", lambda m: kernels.row_slice(m, [17]), toc_ids,
        prepare=lambda i: sharded.decode(i, payloads[i]))
    for matrix in parsed:
        kernels.row_slice(matrix, [17])
    out["exec.row_slice_warm_us"] = 1e6 * ladder.rung(
        "exec.row_slice_warm", lambda m: kernels.row_slice(m, [99]), parsed)

    # exec.scan: one parsed shard of each scheme the scan workload mixes
    for scheme_name in ("TOC", "CVI"):
        scheme = get_scheme(scheme_name)
        shard = scheme.decompress_bytes(scheme.compress(batches[0]).to_bytes())
        out[f"exec.scan.select_shard_us.{scheme_name}"] = 1e6 * ladder.rung(
            f"exec.scan.select_shard.{scheme_name}",
            lambda m: scan_shards([(m, 0)], where=inputs.select_where, columns=SELECT_COLUMNS),
            [shard])
        out[f"exec.scan.agg_shard_us.{scheme_name}"] = 1e6 * ladder.rung(
            f"exec.scan.agg_shard.{scheme_name}",
            lambda m: scan_shards([(m, 0)], where=AGG_WHERE, agg=AGG_SPEC), [shard])

    # ml: one MGD step per batch, one model call per row and per bulk block
    stepper = copy.deepcopy(model)
    labelled = [(m, sharded.labels_for(i)) for m, i in zip(parsed, toc_ids)]
    out["ml.gradient_step_us"] = 1e6 * ladder.rung(
        "ml.gradient_step", lambda b: stepper.gradient_step(b[0], b[1], 0.1), labelled)
    rows = [features[i:i + 1] for i in cold_ids[:256]]
    out["ml.predict_row_us"] = 1e6 * ladder.rung("ml.predict_row", built.estimator.predict, rows)
    blocks = [features[i:i + 1000] for i in range(0, min(inputs.rows, 8000) - 999, 1000)]
    out["ml.predict_block_us"] = 1e6 * ladder.rung(
        "ml.predict_block", built.estimator.predict, blocks)

    # engine: open the shard directory, map one payload
    out["engine.shards.open_ms"] = 1e3 * ladder.rung(
        "engine.shards.open", ShardedDataset.open, [sharded.directory])
    out["engine.shards.read_payload_us"] = 1e6 * ladder.rung(
        "engine.shards.read_payload", sharded.read_payload, shard_ids)

    # storage: the pool on a resident key and on one it evicted
    roomy = BufferPool(budget_bytes=max(1, sharded.total_payload_bytes()))
    sharded.attach(roomy)
    for i in shard_ids:
        roomy.read(i)
    out["storage.buffer_pool.read_hit_us"] = 1e6 * ladder.rung(
        "storage.buffer_pool.read_hit", roomy.read, shard_ids)
    tight = BufferPool(budget_bytes=2 * max(s.nbytes for s in sharded.shards))
    sharded.attach(tight)
    out["storage.buffer_pool.read_miss_us"] = 1e6 * ladder.rung(
        "storage.buffer_pool.read_miss", tight.read, shard_ids)

    # serve: each piece of a predict_id on its own
    cache = LRUCache(256)
    out["serve.lru.get_put_us"] = 1e6 * ladder.rung(
        "serve.lru.get_put", lambda k: (cache.get(k), cache.put(k, 1.0)), list(range(1024)))
    store = FeatureStore.open(sharded.directory)
    out["serve.feature_store.get_row_cold_us"] = 1e6 * ladder.rung(
        "serve.feature_store.get_row_cold", lambda r: store.get_rows([r]), cold_ids)
    hot_ids = inputs.hot_set.tolist()
    store.get_rows(hot_ids)
    out["serve.feature_store.get_row_hot_us"] = 1e6 * ladder.rung(
        "serve.feature_store.get_row_hot", lambda r: store.get_rows([r]), hot_ids)
    with MicroBatcher(lambda requests: requests) as batcher:
        out["serve.batcher.roundtrip_us"] = 1e6 * ladder.rung(
            "serve.batcher.roundtrip", lambda r: batcher.submit(r).result(), [0])
    registry = ModelRegistry(built.checkpoint_dir)
    out["serve.checkpoint.load_ms"] = 1e3 * ladder.rung(
        "serve.checkpoint.load", registry.load, ["latest"])

    # cluster: one predict-sized frame there, one reply-sized frame back
    left, right = socket.socketpair()
    try:
        def frame_roundtrip(row_id):
            send_frame(left, {"op": "predict", "id": row_id, "row_id": row_id, "deadline": None})
            request = recv_frame(right)
            send_frame(right, {"id": request["id"], "ok": True, "value": 1.0})
            recv_frame(left)

        out["cluster.protocol.frame_roundtrip_us"] = 1e6 * ladder.rung(
            "cluster.protocol.frame_roundtrip", frame_roundtrip, cold_ids)
    finally:
        left.close()
        right.close()
    out["cluster.asyncio_service.predict_us"] = 1e6 * _async_predict(
        built, inputs, ladder.recorder, tally)
    return out


def _async_predict(built: Built, inputs: Inputs, recorder: SpanRecorder, tally: Tally) -> float:
    """Median latency of ``AsyncPredictionService.predict`` with ``CLIENTS`` concurrent awaits."""
    expected = built.estimator.predict(inputs.features)
    share = ASYNC_IDS // CLIENTS

    # Coroutines interleave on one thread, so these spans carry their parent
    # explicitly and stay off the recorder's per-thread stack.
    async def client(service, ids, intervals):
        for row_id in ids:
            began = time.perf_counter()
            value = await service.predict(row_id)
            intervals.append((began, time.perf_counter()))
            tally.check(value == expected[row_id], f"async prediction differs for row {row_id}")

    async def run() -> list[tuple[float, float]]:
        service, _ = AsyncPredictionService.from_registry(built.checkpoint_dir)
        intervals: list[tuple[float, float]] = []
        try:
            await asyncio.gather(
                *(client(service, trace[:share], intervals) for trace in inputs.traces))
        finally:
            await service.close()
        return intervals

    with recorder.span("cluster.asyncio_service", phase=PHASE) as whole:
        intervals = asyncio.run(run())
    if recorder.enabled:
        recorder.extend("cluster.asyncio_service.predict", intervals, whole.id, PHASE)
    return float(np.median([end - began for began, end in intervals]))


def inpool_fit(built: Built, workload) -> tuple[float, float]:
    """The same fit with room for every shard: ``(median epoch seconds, final loss)``."""
    report = make_estimator(workload, budget_ratio=4.0).fit(built.dataset)
    return float(np.median(report.history.epoch_times)), report.final_loss
