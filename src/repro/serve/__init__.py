"""Online serving layer over compressed storage.

Training amortizes decompression and linear algebra over mini-batches; this
package applies the same trick to the *read* side, turning a trained model
plus a shard directory into a high-throughput prediction service:

1. **checkpoint** — versioned save/load for the :mod:`repro.ml` models and a
   :class:`ModelRegistry` resolving pinned and ``"latest"`` versions;
2. **feature store** — point and bulk row lookups over a
   :class:`~repro.engine.shards.ShardedDataset`, each shard file mapped
   directly and a few parsed shards kept (decode-on-demand, never the whole
   dataset);
3. **micro-batcher** — the one request pipeline: a bounded queue coalescing
   concurrent single-row requests into mini-batches (decode and matmul costs
   amortized as in the MGD loop), shedding cancelled or expired ones first;
4. **service** — :class:`PredictionService` tying registry, feature store and
   batcher together with one score array per store (a prediction per
   stored row, filled on first touch) and latency/throughput counters; a
   linear model fills it a shard at a time in the compressed domain
   (``A·w`` on the parsed shard) instead of decoding rows.
"""

from repro.serve.batcher import (
    DeadlineExceeded,
    MicroBatcher,
    MicroBatcherStats,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.serve.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    SUPPORTED_CHECKPOINT_VERSIONS,
    Checkpoint,
    ModelRegistry,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.feature_store import FeatureStore, FeatureStoreStats
from repro.serve.service import PredictionService, ServiceStats

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "SUPPORTED_CHECKPOINT_VERSIONS",
    "Checkpoint",
    "DeadlineExceeded",
    "FeatureStore",
    "FeatureStoreStats",
    "MicroBatcher",
    "MicroBatcherStats",
    "ModelRegistry",
    "PredictionService",
    "ServiceClosed",
    "ServiceOverloaded",
    "ServiceStats",
    "load_checkpoint",
    "save_checkpoint",
]
