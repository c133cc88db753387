"""Synthetic matrix generators mimicking the paper's dataset profiles.

TOC's compression ratio is driven by two properties of the underlying data:

1. **sparsity** — sparse encoding drops zero cells;
2. **repeated column-index:value subsequences across rows** — logical
   encoding folds them into shared prefix-tree nodes.

The generator therefore builds each row from *column segments*: the columns
are divided into contiguous segments and every segment has a small pool of
value-tuple variants.  A row picks one variant per segment (with probability
``template_fraction``) or draws that segment independently.  Repeating the
same variants across rows creates exactly the repeated column-index:value
sequences that logical encoding exploits, while keeping whole rows distinct
(no two rows need be identical, as in the real datasets).  Sparsity and the
value-domain cardinality are separate knobs.  Each of the paper's six
datasets maps to one configuration (see :mod:`repro.data.registry`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Value domains at least this large are treated as continuous (no rounding),
#: mirroring datasets like Deep1Billion whose float features never repeat.
_CONTINUOUS_DOMAIN = 10_000


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs controlling the generated matrix.

    Attributes
    ----------
    n_cols:
        Number of feature columns.
    sparsity:
        Fraction of *non-zero* cells (the paper's definition:
        ``# non-zero / # total``).
    n_distinct_values:
        Cardinality of the value domain non-zero cells are drawn from
        (quantised features compress much better; Census/Kdd are heavily
        quantised, Deep1Billion is not).
    template_fraction:
        Probability that a row's segment is copied from the segment's variant
        pool rather than drawn independently.  This is the knob that creates
        cross-row repeated sequences; 0 means every cell is independent.
    n_templates:
        Number of variants in each segment's pool (smaller = more repetition).
    segment_length:
        Number of columns per segment.
    """

    n_cols: int
    sparsity: float
    n_distinct_values: int
    template_fraction: float
    n_templates: int = 8
    segment_length: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError("sparsity must be within [0, 1]")
        if not 0.0 <= self.template_fraction <= 1.0:
            raise ValueError("template_fraction must be within [0, 1]")
        if self.n_cols <= 0 or self.n_distinct_values <= 0 or self.n_templates <= 0:
            raise ValueError("n_cols, n_distinct_values and n_templates must be positive")
        if self.segment_length <= 0:
            raise ValueError("segment_length must be positive")


def _value_pool(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """A pool of distinct non-zero values.

    Small domains are rounded so duplicates are exact (quantised features);
    large domains stay continuous so values essentially never repeat.
    """
    pool = rng.uniform(0.1, 10.0, size=config.n_distinct_values)
    if config.n_distinct_values < _CONTINUOUS_DOMAIN:
        pool = np.round(pool, 3)
    return pool


def _random_cells(
    shape: tuple[int, ...], config: SyntheticConfig, values: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Cells drawn independently with the configured sparsity and value pool."""
    mask = rng.random(shape) < config.sparsity
    cells = values[rng.integers(0, values.size, size=shape)]
    return np.where(mask, cells, 0.0)


def _make_row_block(
    n_rows: int, config: SyntheticConfig, rng: np.random.Generator
) -> np.ndarray:
    """Generate ``n_rows`` rows following ``config``."""
    n_cols = config.n_cols
    values = _value_pool(config, rng)
    matrix = np.zeros((n_rows, n_cols), dtype=np.float64)

    seg_len = min(config.segment_length, n_cols)
    for start in range(0, n_cols, seg_len):
        end = min(start + seg_len, n_cols)
        width = end - start
        # Pool of repeated variants for this segment.
        pool = _random_cells((config.n_templates, width), config, values, rng)
        chosen = rng.integers(0, config.n_templates, size=n_rows)
        segment = pool[chosen]
        # Rows that do not follow a template get independent cells instead.
        independent_rows = rng.random(n_rows) >= config.template_fraction
        n_independent = int(independent_rows.sum())
        if n_independent:
            segment[independent_rows] = _random_cells(
                (n_independent, width), config, values, rng
            )
        matrix[:, start:end] = segment
    return matrix


def make_synthetic_matrix(
    n_rows: int, config: SyntheticConfig, seed: int | None = None
) -> np.ndarray:
    """Generate an ``n_rows``-by-``config.n_cols`` matrix following ``config``."""
    if n_rows <= 0:
        raise ValueError("n_rows must be positive")
    rng = np.random.default_rng(seed)
    return _make_row_block(n_rows, config, rng)


def make_classification(
    n_rows: int,
    config: SyntheticConfig,
    n_classes: int = 2,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate a feature matrix and (learnable) class labels.

    Labels come from a random linear teacher over the features so the MGD
    experiments actually have signal to fit; ``n_classes > 2`` produces
    integer labels in ``[0, n_classes)`` via an argmax over random teachers.
    """
    rng = np.random.default_rng(seed)
    features = _make_row_block(n_rows, config, rng)
    if n_classes < 2:
        raise ValueError("n_classes must be at least 2")
    if n_classes == 2:
        teacher = rng.normal(size=config.n_cols)
        scores = features @ teacher
        labels = (scores > np.median(scores)).astype(np.float64)
    else:
        teachers = rng.normal(size=(config.n_cols, n_classes))
        labels = np.argmax(features @ teachers, axis=1).astype(np.float64)
    return features, labels
