"""Named dataset profiles mirroring Table 5 of the paper.

Each profile records the real dataset's dimensionality and sparsity plus the
repetition / value-cardinality knobs that give the synthetic stand-in the
same *compression behaviour class*:

* Census, ImageNet, Mnist, Kdd99 — moderate sparsity, quantised values,
  substantial cross-row sequence repetition (TOC's sweet spot);
* Rcv1 — extremely sparse, values rarely repeat in sequence (CSR territory);
* Deep1Billion — fully dense, high-cardinality values (nothing compresses).

Column counts are kept at the paper's values where that is tractable
(Census 68, Kdd 42, Deep1B 96, ImageNet 900, Mnist 784) and reduced for
Rcv1 (47k → 4k) so the experiments run in seconds; the sparsity is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import SyntheticConfig, make_classification, make_synthetic_matrix


@dataclass(frozen=True)
class DatasetProfile:
    """A named dataset profile (synthetic stand-in for a Table 5 dataset)."""

    name: str
    config: SyntheticConfig
    n_classes: int = 2
    description: str = ""

    def matrix(self, n_rows: int, seed: int | None = 0) -> np.ndarray:
        """Generate an unlabeled feature matrix with ``n_rows`` rows."""
        return make_synthetic_matrix(n_rows, self.config, seed=seed)

    def classification(self, n_rows: int, seed: int | None = 0):
        """Generate ``(features, labels)`` with ``n_rows`` rows."""
        return make_classification(n_rows, self.config, n_classes=self.n_classes, seed=seed)


DATASET_PROFILES: dict[str, DatasetProfile] = {
    "census": DatasetProfile(
        name="census",
        config=SyntheticConfig(
            n_cols=68,
            sparsity=0.43,
            n_distinct_values=12,
            template_fraction=0.92,
            n_templates=6,
            segment_length=10,
        ),
        description="US Census-like: 68 categorical-ish columns, sparsity 0.43, few distinct values",
    ),
    "imagenet": DatasetProfile(
        name="imagenet",
        config=SyntheticConfig(
            n_cols=900,
            sparsity=0.31,
            n_distinct_values=40,
            template_fraction=0.85,
            n_templates=10,
            segment_length=12,
        ),
        description="ImageNet-feature-like: 900 columns, sparsity 0.31, moderate repetition",
    ),
    "mnist": DatasetProfile(
        name="mnist",
        config=SyntheticConfig(
            n_cols=784,
            sparsity=0.25,
            n_distinct_values=255,
            template_fraction=0.55,
            n_templates=24,
            segment_length=8,
        ),
        n_classes=10,
        description="Mnist8m-like: 784 pixel columns, sparsity 0.25, larger value domain, less repetition",
    ),
    "kdd99": DatasetProfile(
        name="kdd99",
        config=SyntheticConfig(
            n_cols=42,
            sparsity=0.39,
            n_distinct_values=8,
            template_fraction=0.97,
            n_templates=4,
            segment_length=14,
        ),
        description="Kdd99-like: 42 columns, sparsity 0.39, heavily repeated value sequences",
    ),
    "rcv1": DatasetProfile(
        name="rcv1",
        config=SyntheticConfig(
            n_cols=4000,
            sparsity=0.0016,
            n_distinct_values=20000,
            template_fraction=0.0,
            n_templates=1,
            segment_length=8,
        ),
        description="Rcv1-like: extremely sparse text features, essentially no repeated sequences",
    ),
    "deep1b": DatasetProfile(
        name="deep1b",
        config=SyntheticConfig(
            n_cols=96,
            sparsity=1.0,
            n_distinct_values=100000,
            template_fraction=0.0,
            n_templates=1,
            segment_length=8,
        ),
        description="Deep1Billion-like: fully dense float descriptors, no repetition",
    ),
}
