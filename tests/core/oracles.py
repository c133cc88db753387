"""Reference decoders and validators the core tests check the encoders against.

None of this runs on a read: a shard read checks what it must to stay safe
as it goes (see :mod:`repro.core.validate`).  These go further — first-layer
uniqueness, sorted columns in every decoded row, a lossless round trip — so
that a test can reject a corrupted or hand-built encoding with a clear
:class:`~repro.core.validate.EncodingError` instead of comparing silently
wrong arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.core.decode_tree import build_decode_tree
from repro.core.logical import LogicalEncoding
from repro.core.ops import decode_to_sparse
from repro.core.sparse import SparseEncodedTable
from repro.core.toc import TOCMatrix
from repro.core.validate import EncodingError


def sparse_decode(table: SparseEncodedTable) -> np.ndarray:
    """Rebuild the dense matrix from a :class:`SparseEncodedTable`."""
    dense = np.zeros(table.shape, dtype=np.float64)
    row_ids = np.repeat(
        np.arange(table.n_rows, dtype=np.int64), np.diff(table.row_offsets)
    )
    dense[row_ids, table.columns] = table.values
    return dense


def validate_sparse(table: SparseEncodedTable) -> None:
    """Validate a sparse-encoded table beyond the dataclass checks."""
    offsets = table.row_offsets
    if np.any(np.diff(offsets) < 0):
        raise EncodingError("row offsets must be non-decreasing")
    if table.values.size and np.any(table.values == 0.0):
        raise EncodingError("sparse encoding must not store zero values")
    for row in range(table.n_rows):
        cols, _ = table.row_pairs(row)
        if cols.size > 1 and np.any(np.diff(cols) <= 0):
            raise EncodingError(f"row {row} columns are not strictly increasing")


def validate_logical(encoding: LogicalEncoding) -> None:
    """Validate a logical encoding: code ranges, first-layer uniqueness, tree."""
    n_first = encoding.n_first_layer
    pairs = set(
        zip(encoding.first_layer_columns.tolist(), encoding.first_layer_values.tolist())
    )
    if len(pairs) != n_first:
        raise EncodingError("first layer contains duplicate pairs")
    if encoding.first_layer_values.size and np.any(encoding.first_layer_values == 0.0):
        raise EncodingError("first layer must not contain zero values")
    if encoding.first_layer_columns.size and (
        encoding.first_layer_columns.min() < 0
        or encoding.first_layer_columns.max() >= encoding.n_cols
    ):
        raise EncodingError("first-layer column index out of range")
    # Rebuilding the decode tree checks the code ranges and the tree structure.
    # Every decoded row must have strictly increasing column indexes, which is
    # what "preserving tuple boundaries" means for the downstream kernels.
    validate_sparse(decode_to_sparse(build_decode_tree(encoding)))


def validate_roundtrip(matrix: np.ndarray) -> None:
    """Assert that TOC encodes ``matrix`` losslessly (raises otherwise)."""
    toc = TOCMatrix.encode(matrix)
    decoded = toc.to_dense()
    if not np.array_equal(decoded, np.asarray(matrix, dtype=np.float64)):
        raise EncodingError("TOC round-trip is not lossless for the given matrix")
