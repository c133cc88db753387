"""The TOC scheme: the factory for :class:`repro.core.TOCMatrix`.

:class:`~repro.core.toc.TOCMatrix` is itself the scheme's
:class:`~repro.compression.base.CompressedMatrix`, so the paper's
contribution (the ``repro.core`` package) plugs into the scheme-agnostic
training / benchmarking stack with no adapter.  The factory also builds the
ablation variants (sparse only, sparse+logical, full) so the Figure 6 /
Figure 10 experiments can swap them in transparently.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressionScheme
from repro.core.toc import TOCMatrix, TOCVariant


class TOCScheme(CompressionScheme):
    """Factory for TOC-compressed mini-batches (optionally an ablation variant)."""

    def __init__(self, variant: TOCVariant = TOCVariant.FULL):
        self.variant = variant
        if variant is TOCVariant.FULL:
            self.name = "TOC"
        elif variant is TOCVariant.SPARSE_AND_LOGICAL:
            self.name = "TOC_SPARSE_AND_LOGICAL"
        else:
            self.name = "TOC_SPARSE"

    def compress(self, matrix: np.ndarray) -> TOCMatrix:
        return TOCMatrix.encode(matrix, variant=self.variant)

    def decompress_bytes(self, raw: bytes) -> TOCMatrix:
        return TOCMatrix.from_bytes(raw)
