"""Tuple-oriented compression (TOC): the paper's primary contribution.

The sub-modules follow the paper's structure:

* :mod:`repro.core.sparse` — sparse encoding (step 1 of Figure 3).
* :mod:`repro.core.logical` — the prefix-tree encoding algorithm
  (Algorithm 1, Section 3.1.2).
* :mod:`repro.core.physical` — bit packing + value indexing (Section 3.2),
  and the fixed-width layout the ``TOC_SPARSE_AND_LOGICAL`` ablation stores.
* :mod:`repro.core.decode_tree` — the decoding tree ``C'`` (Algorithm 2).
* :mod:`repro.core.ops` — compressed matrix-operation execution
  (Algorithms 3–8, Section 4).
* :mod:`repro.core.toc` — the user-facing :class:`TOCMatrix` tying it together,
  which is also the TOC scheme's :class:`~repro.compression.base.CompressedMatrix`,
  and the matrices of the Figure 6 ablations, ``TOC_SPARSE`` and
  ``TOC_SPARSE_AND_LOGICAL``.
"""

from repro.core.logical import LogicalEncoding, prefix_tree_encode
from repro.core.ops import (
    matrix_plus_scalar,
    matrix_times_matrix,
    matrix_times_scalar,
    matrix_times_vector,
    uncompressed_matrix_times_matrix,
    vector_times_matrix,
)
from repro.core.sparse import SparseEncodedTable, sparse_encode
from repro.core.toc import TOCMatrix

__all__ = [
    "LogicalEncoding",
    "SparseEncodedTable",
    "TOCMatrix",
    "matrix_plus_scalar",
    "matrix_times_matrix",
    "matrix_times_scalar",
    "matrix_times_vector",
    "prefix_tree_encode",
    "sparse_encode",
    "uncompressed_matrix_times_matrix",
    "vector_times_matrix",
]
