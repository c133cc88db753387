"""DEN — the dense baseline format.

Row-major IEEE-754 doubles, the uncompressed reference against which every
compression ratio in the paper is computed.  CLA serialises through the same
dense payload (:func:`dense_payload`, :func:`read_dense_payload`).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedMatrix, CompressionScheme
from repro.core.validate import EncodingError

_HEADER_DTYPE = np.dtype("<u8")
_HEADER_SIZE = 2 * _HEADER_DTYPE.itemsize


def dense_payload(dense: np.ndarray) -> bytes:
    """A dense block as a payload: its ``(rows, cols)`` header, then the row-major doubles."""
    return np.array(dense.shape, dtype=_HEADER_DTYPE).tobytes() + dense.tobytes()


def read_dense_payload(raw, scheme_name: str) -> np.ndarray:
    """The read-only ``(rows, cols)`` view of the doubles a :func:`dense_payload` holds.

    A payload shorter than its header, of any length but ``16 + 8 * rows *
    cols``, or whose header claims a shape NumPy cannot hold raises
    :class:`~repro.core.validate.EncodingError`.
    """
    if len(raw) < _HEADER_SIZE:
        raise EncodingError(f"{scheme_name} payload of {len(raw)} bytes has no header")
    rows, cols = (int(x) for x in np.frombuffer(raw, dtype=_HEADER_DTYPE, count=2))
    expected = _HEADER_SIZE + 8 * rows * cols
    if len(raw) != expected:
        raise EncodingError(
            f"{scheme_name} payload is {len(raw)} bytes; its header ({rows} x {cols}) "
            f"needs {expected}"
        )
    try:
        data = np.frombuffer(raw, dtype=np.float64, offset=_HEADER_SIZE).reshape(rows, cols)
    except ValueError as exc:  # a zero-cell shape past NumPy's limits
        raise EncodingError(f"{scheme_name} header claims a {rows} x {cols} matrix") from exc
    data.flags.writeable = False
    return data


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

    @property
    def nbytes(self) -> int:
        return int(self._data.nbytes)

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
        return dense_payload(self._data)

    @classmethod
    def from_bytes(cls, raw) -> "DenseMatrix":
        """Rebuild a matrix from :meth:`to_bytes` output, as a read-only view of ``raw``."""
        return cls(read_dense_payload(raw, cls.scheme_name))


class DenseScheme(CompressionScheme):
    """Factory for :class:`DenseMatrix`."""

    name = "DEN"

    def compress(self, matrix: np.ndarray) -> DenseMatrix:
        return DenseMatrix(matrix)

    def decompress_bytes(self, raw: bytes) -> DenseMatrix:
        return DenseMatrix.from_bytes(raw)
