"""Streaming out-of-core training engine.

This package is the end-to-end data path the paper's storage experiments
imply but the seed code never assembled:

1. **encode** — shard a dataset into TOC-compressed mini-batches with a
   multi-worker ``concurrent.futures`` pipeline (:mod:`repro.engine.encode`);
2. **persist** — write one blob file per batch plus a manifest
   (:mod:`repro.engine.shards`), page-layout accounting included;
3. **serve** — register shards as lazy entries in the byte-budgeted
   :class:`~repro.storage.buffer_pool.BufferPool` and stream them in
   order on the training thread;
4. **train** — drive the existing MGD optimizer and models over the stream
   (:mod:`repro.engine.trainer`), or hand the shards to a Bismarck session.
"""

from repro.engine.compact import CompactReport, ShardChange, compact_dataset, readvise_shard
from repro.engine.encode import (
    AUTO_SCHEME,
    EncodedBatch,
    encode_batches,
    resolve_executor,
    resolve_workers,
)
from repro.engine.shards import ShardedDataset, ShardInfo
from repro.engine.trainer import OOCTrainReport, OutOfCoreTrainer

__all__ = [
    "AUTO_SCHEME",
    "CompactReport",
    "EncodedBatch",
    "OOCTrainReport",
    "OutOfCoreTrainer",
    "ShardChange",
    "ShardInfo",
    "ShardedDataset",
    "compact_dataset",
    "encode_batches",
    "readvise_shard",
    "resolve_executor",
    "resolve_workers",
]
