"""repro — tuple-oriented compression (TOC) for mini-batch SGD.

A reproduction of *Tuple-oriented Compression for Large-scale Mini-batch
Stochastic Gradient Descent* (Li et al., SIGMOD 2019).

The recommended entry point is :mod:`repro.api` — the unified facade
(:class:`Dataset`, :class:`Estimator`, :func:`open_service`) that owns the
dataset lifecycle end to end.  This top-level package re-exports the facade
plus the lower-level pieces advanced users reach for:

* :class:`TOCMatrix` — compress a mini-batch and run matrix operations
  directly on the compressed representation;
* :func:`get_scheme` / :func:`available_schemes` — the seven comparison
  schemes plus TOC, each a matrix class whose ``compress`` /
  ``decompress_bytes`` classmethods are the scheme;
* the MGD training stack (models and the optimizer);
* the dataset profiles mirroring the paper's Table 5;
* the byte-budgeted :class:`BufferPool` the out-of-core trainer and the
  end-to-end experiments train through, which counts the bytes it reads.
"""

from repro.compression import available_schemes, get_scheme
from repro.core import TOCMatrix
from repro.core.advisor import recommend_scheme
from repro.data import DATASET_PROFILES, split_minibatches
from repro.engine import OutOfCoreTrainer, encode_batches
from repro.ml import (
    FeedForwardNetwork,
    GradientDescentConfig,
    LinearRegressionModel,
    LinearSVMModel,
    LogisticRegressionModel,
    MiniBatchGradientDescent,
    OneVsRestClassifier,
)
from repro.serve import FeatureStore, MicroBatcher, ModelRegistry, PredictionService
from repro.storage import BufferPool

__version__ = "0.2.0"

# The facade imports last: repro.api reads ``repro.__version__`` back, so it
# must come after everything above (and after __version__) is bound.
from repro.api import Dataset, Estimator, open_service  # noqa: E402

__all__ = [
    "Dataset",
    "Estimator",
    "open_service",
    "BufferPool",
    "DATASET_PROFILES",
    "FeatureStore",
    "FeedForwardNetwork",
    "GradientDescentConfig",
    "LinearRegressionModel",
    "LinearSVMModel",
    "LogisticRegressionModel",
    "MicroBatcher",
    "MiniBatchGradientDescent",
    "ModelRegistry",
    "OneVsRestClassifier",
    "OutOfCoreTrainer",
    "PredictionService",
    "TOCMatrix",
    "available_schemes",
    "encode_batches",
    "get_scheme",
    "recommend_scheme",
    "split_minibatches",
    "__version__",
]
