"""CSR — compressed sparse row, the standard sparse baseline.

Only the non-zero values and their column indexes are stored, per row,
using 4-byte column indexes / row offsets and 8-byte values (the storage
layout the paper's C++ implementation uses).  Matrix operations run directly
on the compressed representation via SciPy's CSR kernels.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.compression.base import CompressedMatrix
from repro.core.validate import EncodingError

_HEADER_DTYPE = np.dtype("<u8")


def gather_rows(indptr, indices, index: np.ndarray, n_cols: int, values_at) -> np.ndarray:
    """Dense copy of the CSR rows ``index`` (validated, in request order).

    The stored cells of row ``r`` sit at positions ``[indptr[r], indptr[r+1])``;
    concatenating those ranges for every requested row gives one flat
    position array, and ``values_at(positions)`` returns the cells' values
    (CSR's data array, or CVI's dictionary through its codes).  One
    vectorised pass, no SciPy matrix built; duplicated rows are allowed.
    """
    out = np.zeros((index.size, n_cols), dtype=np.float64)
    starts = indptr[index]
    counts = indptr[index + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return out
    out_rows = np.repeat(np.arange(index.size), counts)
    range_offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.arange(total) - range_offsets[out_rows] + starts[out_rows]
    out[out_rows, indices[positions]] = values_at(positions)
    return out


def check_row_layout(indptr: np.ndarray, indices: np.ndarray, cols: int, scheme_name: str) -> None:
    """Refuse a parsed row layout that ``to_bytes`` never writes.

    ``indptr`` must run monotonically from 0 to nnz, every column index must
    be below ``cols`` (both arrays are widened from unsigned, so none is
    negative), and the indexes must strictly increase within each row.  The
    kernels trust all three: SciPy reads past its buffers on a bad offset
    or index, and a column stored twice in a row is summed by the products
    but overwritten by the row gather.  A layout that fails raises
    :class:`~repro.core.validate.EncodingError`.
    """
    nnz = indices.size
    if indptr[0] != 0 or indptr[-1] != nnz or (indptr[1:] < indptr[:-1]).any():
        raise EncodingError(f"{scheme_name} row offsets must run monotonically from 0 to nnz")
    if nnz == 0:
        return
    if int(indices.max()) >= cols:
        raise EncodingError(f"{scheme_name} column index out of range for {cols} columns")
    # ``out_of_order[j]``: cell j's column is not above the one before it,
    # which is a fault unless cell j starts a row.
    out_of_order = np.zeros(nnz + 1, dtype=bool)
    np.less_equal(indices[1:], indices[:-1], out=out_of_order[1:nnz])
    out_of_order[indptr] = False
    if out_of_order.any():
        raise EncodingError(f"{scheme_name} column indexes must increase within each row")


class CSRMatrix(CompressedMatrix):
    """A mini-batch stored in compressed sparse row format."""

    scheme_name = "CSR"
    supports_direct_ops = True

    def __init__(self, matrix: np.ndarray | sp.csr_matrix):
        if sp.issparse(matrix):
            csr = matrix.tocsr().astype(np.float64)
        else:
            csr = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
        # Sorted, unique column indexes per row: the row gather reads one cell
        # per column, and ``decompress_bytes`` accepts nothing else.
        csr.sum_duplicates()
        csr.eliminate_zeros()
        super().__init__(csr.shape)
        self._csr = csr

    @property
    def nnz(self) -> int:
        return int(self._csr.nnz)

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        return self._csr @ self._check_matvec_input(vector)

    def rmatvec(self, vector: np.ndarray) -> np.ndarray:
        return self._check_rmatvec_input(vector) @ self._csr

    def matmat(self, matrix: np.ndarray) -> np.ndarray:
        return self._csr @ np.asarray(matrix, dtype=np.float64)

    def rmatmat(self, matrix: np.ndarray) -> np.ndarray:
        return np.asarray(matrix, dtype=np.float64) @ self._csr

    def scale(self, scalar: float) -> "CSRMatrix":
        csr = self._csr
        scaled = sp.csr_matrix(
            (csr.data * float(scalar), csr.indices.copy(), csr.indptr.copy()), shape=self.shape
        )
        scaled.eliminate_zeros()
        return self._wrap(scaled)

    def to_dense(self) -> np.ndarray:
        return np.asarray(self._csr.todense(), dtype=np.float64)

    def _row_slice_rows(self, index: np.ndarray) -> np.ndarray:
        csr = self._csr
        return gather_rows(csr.indptr, csr.indices, index, self.n_cols, csr.data.take)

    def to_scipy(self) -> sp.csr_matrix:
        """Return the underlying SciPy CSR matrix (no copy)."""
        return self._csr

    def to_bytes(self) -> bytes:
        header = np.array(
            [self.n_rows, self.n_cols, self._csr.nnz], dtype=_HEADER_DTYPE
        ).tobytes()
        return (
            header
            + self._csr.indptr.astype("<u4").tobytes()
            + self._csr.indices.astype("<u4").tobytes()
            + self._csr.data.astype("<f8").tobytes()
        )

    @classmethod
    def decompress_bytes(cls, raw: bytes) -> "CSRMatrix":
        """Rebuild a matrix from :meth:`to_bytes` output.

        The lengths and the row layout (:func:`check_row_layout`) are
        checked before SciPy sees the arrays; a payload that fails raises
        :class:`~repro.core.validate.EncodingError`.
        """
        header_size = 3 * _HEADER_DTYPE.itemsize
        if len(raw) < header_size:
            raise EncodingError(f"{cls.scheme_name} payload of {len(raw)} bytes has no header")
        rows, cols, nnz = (
            int(x) for x in np.frombuffer(raw[:header_size], dtype=_HEADER_DTYPE)
        )
        expected = header_size + (rows + 1) * 4 + nnz * 12
        if len(raw) != expected:
            raise EncodingError(
                f"{cls.scheme_name} payload is {len(raw)} bytes; its header ({rows} x {cols}, "
                f"{nnz} non-zeros) needs {expected}"
            )
        offset = header_size
        indptr = np.frombuffer(raw[offset:], dtype="<u4", count=rows + 1).astype(np.int64)
        offset += (rows + 1) * 4
        indices = np.frombuffer(raw[offset:], dtype="<u4", count=nnz).astype(np.int64)
        offset += nnz * 4
        data = np.frombuffer(raw[offset:], dtype="<f8", count=nnz).astype(np.float64)
        check_row_layout(indptr, indices, cols, cls.scheme_name)
        if cols > np.iinfo(np.int64).max:  # SciPy's widest index type
            raise EncodingError(f"{cls.scheme_name} header claims {cols} columns")
        # One construction from the checked arrays (``data`` is already an
        # owned float64 copy, so no ``astype`` builds a second matrix).
        csr = sp.csr_matrix((data, indices, indptr), shape=(rows, cols))
        csr.eliminate_zeros()
        return cls._wrap(csr)

    @classmethod
    def _wrap(cls, csr: sp.csr_matrix) -> "CSRMatrix":
        """A matrix over ``csr`` as it is: float64, no stored zeros, no copy."""
        instance = cls.__new__(cls)
        CompressedMatrix.__init__(instance, csr.shape)
        instance._csr = csr
        return instance
