"""Mini-batch splitting and shuffle-once sampling (Section 2.1.3 of the paper).

The paper follows the standard shuffle-once discipline: the dataset is
shuffled a single time up front, then partitioned into fixed-size
mini-batches which are compressed once and revisited every epoch.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


def iter_minibatch_slices(
    n_rows: int,
    batch_size: int,
    shuffle: bool = True,
    seed: int | None = 0,
    drop_last: bool = False,
) -> Iterator[np.ndarray]:
    """Yield the row-index array of each mini-batch without touching the data.

    This is the index-level half of :func:`split_minibatches`: the shuffle-once
    permutation is generated from ``seed`` and partitioned into ``batch_size``
    slices, letting callers stream batch by batch instead of materialising
    every batch up front.
    """
    if n_rows <= 0:
        raise ValueError("n_rows must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    order = np.arange(n_rows)
    if shuffle:
        rng = np.random.default_rng(seed)
        rng.shuffle(order)
    for start in range(0, n_rows, batch_size):
        idx = order[start : start + batch_size]
        if drop_last and idx.size < batch_size:
            return
        yield idx


def split_minibatches(
    features: np.ndarray,
    labels: np.ndarray | None = None,
    batch_size: int = 250,
    shuffle: bool = True,
    seed: int | None = 0,
    drop_last: bool = False,
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Shuffle once and split into mini-batches of ``batch_size`` rows.

    Returns a list of ``(batch_features, batch_labels)`` tuples; the label
    element is ``None`` when no labels were supplied.  The final partial
    batch is kept unless ``drop_last`` is set.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    y = None if labels is None else np.asarray(labels)
    if y is not None and y.shape[0] != x.shape[0]:
        raise ValueError("features and labels must have the same number of rows")

    batches: list[tuple[np.ndarray, np.ndarray | None]] = []
    if x.shape[0] == 0:
        return batches
    for idx in iter_minibatch_slices(
        x.shape[0], batch_size, shuffle=shuffle, seed=seed, drop_last=drop_last
    ):
        batch_x = x[idx]
        batch_y = None if y is None else y[idx]
        batches.append((batch_x, batch_y))
    return batches
