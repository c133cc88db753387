"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.registry import available_schemes
from repro.core.calibration import (
    CALIBRATION_OPS,
    CALIBRATION_VERSION,
    Calibration,
    calibration_path,
    platform_fingerprint,
)
from repro.data.registry import DATASET_PROFILES


@pytest.fixture()
def paper_matrix() -> np.ndarray:
    """The 4x4 running-example matrix (original table A of Figure 3)."""
    return np.array(
        [
            [1.1, 2.0, 3.0, 1.4],
            [1.1, 2.0, 3.0, 0.0],
            [0.0, 1.1, 3.0, 1.4],
            [1.1, 2.0, 0.0, 0.0],
        ]
    )


@pytest.fixture()
def census_batch() -> np.ndarray:
    """A 64-row census-like mini-batch (moderate sparsity, repeated sequences)."""
    return DATASET_PROFILES["census"].matrix(64, seed=7)


@pytest.fixture()
def rcv1_batch() -> np.ndarray:
    """A 32-row very-sparse batch (rcv1-like)."""
    return DATASET_PROFILES["rcv1"].matrix(32, seed=7)


@pytest.fixture()
def dense_batch() -> np.ndarray:
    """A 32-row fully dense batch with continuous values (deep1b-like)."""
    return DATASET_PROFILES["deep1b"].matrix(32, seed=7)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_sparse_matrix(
    rng: np.random.Generator,
    n_rows: int,
    n_cols: int,
    sparsity: float = 0.4,
    n_values: int = 6,
) -> np.ndarray:
    """Helper used by several test modules to build small random matrices."""
    values = np.round(rng.uniform(-5, 5, size=n_values), 2)
    values = values[values != 0.0]
    if values.size == 0:
        values = np.array([1.0])
    mask = rng.random((n_rows, n_cols)) < sparsity
    cells = values[rng.integers(0, values.size, size=(n_rows, n_cols))]
    return np.where(mask, cells, 0.0)


def fake_calibration(costs: dict[str, float], level: float = 0.0) -> Calibration:
    """A hand-built calibration: every op of a scheme costs ``costs[name]``."""
    return Calibration(
        version=CALIBRATION_VERSION,
        created_unix=0.0,
        git_commit=None,
        platform=platform_fingerprint(),
        rows=96,
        cols=32,
        sparsity_levels=(level,),
        timings={
            name: {repr(float(level)): {op: seconds for op in CALIBRATION_OPS}}
            for name, seconds in costs.items()
        },
    )


@pytest.fixture()
def pin_calibration():
    """Write a hand-built calibration next to a dataset, so its advice is known.

    ``pin(directory, costs)``: every registered scheme's ops cost ``costs``'
    seconds per element, 1 s for a scheme it does not name.  The file steers
    that directory's advice only.
    """

    def pin(directory, costs: dict[str, float]) -> None:
        full = {name: costs.get(name, 1.0) for name in available_schemes()}
        fake_calibration(full).save(calibration_path(directory))

    return pin
