"""Structural validation of TOC encodings, and the one error every decoder raises.

A shard read checks what it must to stay safe as it goes, with no pass of
its own: :func:`repro.core.physical.physical_decode` the block lengths, the
payload's end, the value codes and the first-layer columns;
:class:`~repro.core.logical.LogicalEncoding` the row offsets and the codes'
lower bound; :func:`repro.core.decode_tree.build_decode_tree` the codes'
upper bound and the tree's order (each parent before its child, no code
ahead of its node), before its doubling loop walks a pointer.  Each raises
:class:`EncodingError`.  The functions here go further — first-layer
uniqueness, sorted columns in every decoded row, a lossless round trip —
for tests and the failure-injection experiments, so that corrupted or
hand-built encodings are rejected with clear errors instead of producing
silently wrong arithmetic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.bitpack.bitpacking import EncodingError

if TYPE_CHECKING:  # annotations only: the encoders import this module's error
    from repro.core.logical import LogicalEncoding
    from repro.core.sparse import SparseEncodedTable

__all__ = ["EncodingError", "validate_logical", "validate_roundtrip", "validate_sparse"]


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
    # Imported here because the tree builder raises this module's error.
    from repro.core.decode_tree import build_decode_tree
    from repro.core.ops import decode_to_sparse

    # Rebuilding the decode tree checks the code ranges and the tree structure.
    # Every decoded row must have strictly increasing column indexes, which is
    # what "preserving tuple boundaries" means for the downstream kernels.
    validate_sparse(decode_to_sparse(build_decode_tree(encoding)))


def validate_roundtrip(matrix: np.ndarray) -> None:
    """Assert that TOC encodes ``matrix`` losslessly (raises otherwise)."""
    from repro.core.toc import TOCMatrix

    toc = TOCMatrix.encode(matrix)
    decoded = toc.to_dense()
    if not np.array_equal(decoded, np.asarray(matrix, dtype=np.float64)):
        raise EncodingError("TOC round-trip is not lossless for the given matrix")
