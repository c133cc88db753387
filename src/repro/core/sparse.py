"""Sparse encoding — step 1 of TOC (Figure 3 of the paper).

Zero values are dropped and every remaining value is prefixed with its
column index, turning each matrix row into a list of column-index:value
pairs.  The output is stored CSR-style (flat ``columns`` / ``values`` arrays
plus per-row offsets) so later stages stay vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SparseEncodedTable:
    """The sparse-encoded table ``B`` in the paper's Figure 3.

    Attributes
    ----------
    columns, values:
        Flat arrays of the column indexes and values of all non-zero cells,
        row-major.
    row_offsets:
        ``row_offsets[i]:row_offsets[i + 1]`` slices out row ``i``'s pairs.
    shape:
        Shape of the original dense matrix (rows, columns).
    """

    columns: np.ndarray
    values: np.ndarray
    row_offsets: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        n_rows, n_cols = self.shape
        if self.row_offsets.size != n_rows + 1:
            raise ValueError("row_offsets must have exactly one more entry than rows")
        if self.columns.size != self.values.size:
            raise ValueError("columns and values must have the same length")
        if int(self.row_offsets[-1]) != self.columns.size:
            raise ValueError("row_offsets must end at the number of stored pairs")
        if self.columns.size and (self.columns.min() < 0 or self.columns.max() >= n_cols):
            raise ValueError("column index out of range for the declared shape")

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) pairs."""
        return int(self.columns.size)

    def row_pairs(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the column indexes and values of ``row``."""
        start, end = int(self.row_offsets[row]), int(self.row_offsets[row + 1])
        return self.columns[start:end], self.values[start:end]

    def iter_rows(self):
        """Yield ``(columns, values)`` for each row in order."""
        for row in range(self.n_rows):
            yield self.row_pairs(row)


def sparse_encode(matrix: np.ndarray) -> SparseEncodedTable:
    """Sparse-encode a dense matrix (drop zeros, keep column prefixes).

    A zero is whatever compares equal to ``0.0``, so ``-0.0`` is dropped too
    and decodes as ``+0.0`` — the one cell whose bits do not survive.  NaN,
    the infinities and subnormals are ordinary stored values.
    """
    dense = np.asarray(matrix, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError(f"sparse_encode expects a 2-D matrix, got ndim={dense.ndim}")
    mask = dense != 0.0
    row_offsets = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(mask, axis=1), out=row_offsets[1:])
    # Flat row-major positions: one index array instead of a (rows, cols) pair.
    flat = np.flatnonzero(mask)
    return SparseEncodedTable(
        columns=(flat % dense.shape[1]).astype(np.int64, copy=False),
        values=dense.take(flat),
        row_offsets=row_offsets,
        shape=dense.shape,
    )

