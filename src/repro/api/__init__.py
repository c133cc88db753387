"""repro.api — the unified public facade over the whole stack.

Four ideas cover everything a user does with the library:

* :class:`Dataset` — a compressed shard directory's full lifecycle:
  ``create`` (parallel encode, per-shard advisor with ``scheme="auto"``),
  ``open``, ``append``, ``stats`` (per-shard scheme mix), ``compact``
  (re-advise on drift, re-encode only the shards whose winner changed),
  ``scan`` (predicate / aggregate queries pushed down onto the compressed
  shards), ``take`` / ``__getitem__`` (random row access), and ``fsck``
  (sweep leftovers of interrupted rewrites);
* :class:`Estimator` — scikit-style ``fit``/``partial_fit``/``predict``
  over ndarray, SciPy sparse, or :class:`Dataset` input, routing in-memory
  vs out-of-core automatically, with ``save``/``load`` through the
  versioned checkpoint registry;
* :func:`open_service` — turn a checkpoint registry into a live
  micro-batched :class:`~repro.serve.service.PredictionService`, or with
  ``workers=N`` into a multi-process
  :class:`~repro.cluster.server.ClusterService`; the asyncio face is
  :class:`~repro.cluster.asyncio_service.AsyncPredictionService`, an
  awaitable bridge over the in-process service's ``submit_*`` whose queue
  bound (``max_queue``) and per-call deadlines are the service's own;
* the building blocks themselves (schemes, advisor, dataset profiles,
  metrics) re-exported so scripts and examples need exactly one import.

Observability rides along: :func:`span` / :func:`metrics_snapshot` expose
the live tracing/metrics substrate (:mod:`repro.obs`) the hot paths feed.

Every future surface (CLI subcommands, async serving, new backends) binds
to this package; ``repro.engine`` / ``repro.serve`` / ``repro.storage``
remain importable for advanced use but are not needed day to day.
"""

from repro import __version__
from repro.api.estimator import MODEL_ALIASES, Estimator, FitReport
from repro.api.service import open_service
from repro.cluster import (
    AsyncPredictionService,
    ClusterError,
    ClusterService,
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
    WorkerCrashed,
)
from repro.compression import available_schemes, get_scheme
from repro.core import TOCMatrix
from repro.core.advisor import recommend_scheme
from repro.core.calibration import (
    WORKLOADS,
    Calibration,
    calibrate,
    ensure_calibration,
)
from repro.data import DATASET_PROFILES
from repro.engine.compact import CompactReport, ShardChange
from repro.engine.shards import Dataset, DatasetStats, FsckReport
from repro.exec import (
    Aggregate,
    Compare,
    Predicate,
    ScanResult,
    parse_aggregates,
    parse_predicate,
)
from repro.ml.metrics import accuracy, error_rate
from repro.obs import metrics_snapshot, span
from repro.serve.checkpoint import Checkpoint, ModelRegistry
from repro.serve.service import PredictionService

__all__ = [
    "Aggregate",
    "AsyncPredictionService",
    "Calibration",
    "Checkpoint",
    "ClusterError",
    "ClusterService",
    "CompactReport",
    "Compare",
    "DATASET_PROFILES",
    "Dataset",
    "DatasetStats",
    "DeadlineExceeded",
    "Estimator",
    "FitReport",
    "FsckReport",
    "MODEL_ALIASES",
    "ModelRegistry",
    "Predicate",
    "PredictionService",
    "ServiceClosed",
    "ServiceOverloaded",
    "WorkerCrashed",
    "ScanResult",
    "ShardChange",
    "TOCMatrix",
    "WORKLOADS",
    "__version__",
    "accuracy",
    "available_schemes",
    "calibrate",
    "ensure_calibration",
    "error_rate",
    "get_scheme",
    "metrics_snapshot",
    "open_service",
    "parse_aggregates",
    "parse_predicate",
    "recommend_scheme",
    "span",
]
