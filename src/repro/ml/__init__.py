"""MGD training substrate.

Implements the ML workloads of the paper's evaluation — Logistic regression,
Linear regression, linear SVM, and a feed-forward neural network — trained
with mini-batch stochastic gradient descent over *compressed* mini-batches.
All gradient computations are expressed through the four compressed matrix
operations of Section 4 (``A @ v``, ``v @ A``, ``A @ M``, ``M @ A``), so the
same model code runs unchanged on every compression scheme.
"""

from repro.ml.losses import CrossEntropyLoss, HingeLoss, LogisticLoss, SquaredLoss
from repro.ml.metrics import accuracy, error_rate
from repro.ml.models import (
    FeedForwardNetwork,
    LinearRegressionModel,
    LinearSVMModel,
    LogisticRegressionModel,
)
from repro.ml.multiclass import OneVsRestClassifier
from repro.ml.optimizer import GradientDescentConfig, MiniBatchGradientDescent

__all__ = [
    "CrossEntropyLoss",
    "FeedForwardNetwork",
    "GradientDescentConfig",
    "HingeLoss",
    "LinearRegressionModel",
    "LinearSVMModel",
    "LogisticLoss",
    "LogisticRegressionModel",
    "MiniBatchGradientDescent",
    "OneVsRestClassifier",
    "SquaredLoss",
    "accuracy",
    "error_rate",
]
