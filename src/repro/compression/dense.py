"""DEN — the dense baseline format.

Row-major IEEE-754 doubles after a ``(rows, cols)`` header, the
uncompressed reference against which every compression ratio in the paper
is computed.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedMatrix
from repro.core.validate import EncodingError

_HEADER_DTYPE = np.dtype("<u8")
_HEADER_SIZE = 2 * _HEADER_DTYPE.itemsize


class DenseMatrix(CompressedMatrix):
    """A mini-batch stored as a plain dense float64 matrix."""

    scheme_name = "DEN"
    supports_direct_ops = True

    def __init__(self, matrix: np.ndarray):
        dense = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
        if dense.ndim != 2:
            raise ValueError("DenseMatrix expects a 2-D matrix")
        super().__init__(dense.shape)
        self._data = dense

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        return self._data @ self._check_matvec_input(vector)

    def rmatvec(self, vector: np.ndarray) -> np.ndarray:
        return self._check_rmatvec_input(vector) @ self._data

    def matmat(self, matrix: np.ndarray) -> np.ndarray:
        return self._data @ np.asarray(matrix, dtype=np.float64)

    def rmatmat(self, matrix: np.ndarray) -> np.ndarray:
        return np.asarray(matrix, dtype=np.float64) @ self._data

    def scale(self, scalar: float) -> "DenseMatrix":
        return DenseMatrix(self._data * float(scalar))

    def to_dense(self) -> np.ndarray:
        return self._data.copy()

    def _row_slice_rows(self, index: np.ndarray) -> np.ndarray:
        return self._data[index].copy()

    def to_bytes(self) -> bytes:
        return np.array(self.shape, dtype=_HEADER_DTYPE).tobytes() + self._data.tobytes()

    @classmethod
    def decompress_bytes(cls, raw) -> "DenseMatrix":
        """Rebuild a matrix from :meth:`to_bytes` output, as a read-only view of ``raw``.

        A payload shorter than its header, of any length but ``16 + 8 * rows *
        cols``, or whose header claims a shape NumPy cannot hold raises
        :class:`~repro.core.validate.EncodingError`.
        """
        if len(raw) < _HEADER_SIZE:
            raise EncodingError(f"DEN payload of {len(raw)} bytes has no header")
        rows, cols = (int(x) for x in np.frombuffer(raw, dtype=_HEADER_DTYPE, count=2))
        expected = _HEADER_SIZE + 8 * rows * cols
        if len(raw) != expected:
            raise EncodingError(
                f"DEN payload is {len(raw)} bytes; its header ({rows} x {cols}) needs {expected}"
            )
        try:
            data = np.frombuffer(raw, dtype=np.float64, offset=_HEADER_SIZE).reshape(rows, cols)
        except ValueError as exc:  # a zero-cell shape past NumPy's limits
            raise EncodingError(f"DEN header claims a {rows} x {cols} matrix") from exc
        data.flags.writeable = False
        return cls(data)
