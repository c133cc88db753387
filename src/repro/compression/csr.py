"""CSR — compressed sparse row, the standard sparse baseline.

Only the non-zero values and their column indexes are stored, per row,
using 4-byte column indexes / row offsets and 8-byte values (the storage
layout the paper's C++ implementation uses).  Matrix operations run directly
on the compressed representation via SciPy's CSR kernels.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.compression.base import CompressedMatrix, CompressionScheme
from repro.core.validate import EncodingError

_HEADER_DTYPE = np.dtype("<u8")


class CSRMatrix(CompressedMatrix):
    """A mini-batch stored in compressed sparse row format."""

    scheme_name = "CSR"
    supports_direct_ops = True

    def __init__(self, matrix: np.ndarray | sp.csr_matrix):
        if sp.issparse(matrix):
            csr = matrix.tocsr().astype(np.float64)
        else:
            csr = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
        csr.eliminate_zeros()
        super().__init__(csr.shape)
        self._csr = csr

    @property
    def nbytes(self) -> int:
        # 4-byte column indexes and row offsets, 8-byte values.
        return int(self._csr.indices.size * 4 + self._csr.data.size * 8 + self._csr.indptr.size * 4)

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
        return CSRMatrix(self._csr * float(scalar))

    def to_dense(self) -> np.ndarray:
        return np.asarray(self._csr.todense(), dtype=np.float64)

    def _row_slice_rows(self, index: np.ndarray) -> np.ndarray:
        return np.asarray(self._csr[index].todense(), dtype=np.float64)

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
    def from_bytes(cls, raw: bytes) -> "CSRMatrix":
        """Rebuild a matrix from :meth:`to_bytes` output.

        SciPy trusts the arrays it is handed, and an ``indptr`` or an index
        out of range makes its kernels read past their buffers.  So the
        lengths, ``indptr`` (monotonic from 0 to nnz) and every column index
        are checked first, and a payload that fails raises
        :class:`~repro.core.validate.EncodingError`.
        """
        header_size = 3 * _HEADER_DTYPE.itemsize
        if len(raw) < header_size:
            raise EncodingError(f"CSR payload of {len(raw)} bytes has no header")
        rows, cols, nnz = (
            int(x) for x in np.frombuffer(raw[:header_size], dtype=_HEADER_DTYPE)
        )
        expected = header_size + (rows + 1) * 4 + nnz * 12
        if len(raw) != expected:
            raise EncodingError(
                f"CSR payload is {len(raw)} bytes; its header ({rows} x {cols}, "
                f"{nnz} non-zeros) needs {expected}"
            )
        offset = header_size
        indptr = np.frombuffer(raw[offset:], dtype="<u4", count=rows + 1).astype(np.int64)
        offset += (rows + 1) * 4
        indices = np.frombuffer(raw[offset:], dtype="<u4", count=nnz).astype(np.int64)
        offset += nnz * 4
        data = np.frombuffer(raw[offset:], dtype="<f8", count=nnz).astype(np.float64)
        if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
            raise EncodingError("CSR row offsets must run monotonically from 0 to nnz")
        if nnz and int(indices.max()) >= cols:
            raise EncodingError(f"CSR column index out of range for {cols} columns")
        if cols > np.iinfo(np.int64).max:  # SciPy's widest index type
            raise EncodingError(f"CSR header claims {cols} columns")
        # One construction from the checked arrays (``data`` is already an
        # owned float64 copy, so no ``astype`` builds a second matrix).
        csr = sp.csr_matrix((data, indices, indptr), shape=(rows, cols))
        csr.eliminate_zeros()
        instance = cls.__new__(cls)
        CompressedMatrix.__init__(instance, (rows, cols))
        instance._csr = csr
        return instance


class CSRScheme(CompressionScheme):
    """Factory for :class:`CSRMatrix`."""

    name = "CSR"

    def compress(self, matrix: np.ndarray) -> CSRMatrix:
        return CSRMatrix(matrix)

    def decompress_bytes(self, raw: bytes) -> CSRMatrix:
        return CSRMatrix.from_bytes(raw)
