"""Workload construction shared by all experiments.

The paper's evaluation always starts from the same ingredients: a dataset
profile (Table 5), mini-batches of 50–250 rows, and scaled-up row counts for
the end-to-end runs.  This module centralises those ingredients so every
bench uses the same data for the same experiment id.
"""

from __future__ import annotations

import numpy as np

from repro.data.registry import DATASET_PROFILES

#: Datasets used by the compression-ratio / matrix-op experiments, in the
#: order the paper's figures plot them.
ALL_DATASETS = ("census", "imagenet", "mnist", "kdd99", "rcv1", "deep1b")

#: Datasets of moderate sparsity (the end-to-end experiments use these).
MODERATE_DATASETS = ("census", "imagenet", "mnist", "kdd99")

#: Mini-batch sizes swept in Figures 5 and 6.
MINIBATCH_SIZES = (50, 100, 150, 200, 250)


def minibatch_for(dataset: str, n_rows: int = 250, seed: int = 0) -> np.ndarray:
    """One mini-batch of ``n_rows`` rows drawn from the named profile."""
    return DATASET_PROFILES[dataset].matrix(n_rows, seed=seed)


def labeled_dataset(dataset: str, n_rows: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A labelled dataset of ``n_rows`` rows from the named profile."""
    return DATASET_PROFILES[dataset].classification(n_rows, seed=seed)


def n_classes(dataset: str) -> int:
    """Number of classes of the named profile (Mnist-like is 10, rest binary)."""
    return DATASET_PROFILES[dataset].n_classes
