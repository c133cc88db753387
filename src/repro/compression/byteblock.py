"""General-purpose byte compressors (the paper's Gzip and Snappy baselines).

Both compress the serialised DEN bytes of a mini-batch.  Because the format
knows nothing about rows or columns, *every* matrix operation must first
decompress the whole batch — the decompression overhead that Figures 8 and 12
and the end-to-end tables expose.

Substitution note (see DESIGN.md): the real Snappy library is not available
offline, so the "Snappy" role — a fast byte compressor with a lower ratio
than Gzip — is played by zlib level 1, and "Gzip" by zlib level 9 (the same
DEFLATE algorithm gzip uses, minus the file header).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.compression.base import CompressedMatrix
from repro.compression.dense import DenseMatrix
from repro.core.validate import EncodingError

_HEADER_DTYPE = np.dtype("<u8")


class _ByteBlockMatrix(CompressedMatrix):
    """A mini-batch held as an opaque compressed byte block."""

    #: zlib compression level used by the concrete subclass.
    level: int = 6
    supports_direct_ops = False

    def __init__(self, matrix: np.ndarray | None = None, *, _payload: bytes | None = None,
                 _shape: tuple[int, int] | None = None):
        if matrix is not None:
            dense = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
            if dense.ndim != 2:
                raise ValueError("byte-block schemes expect a 2-D matrix")
            super().__init__(dense.shape)
            self._payload = zlib.compress(dense.tobytes(), self.level)
        else:
            if _payload is None or _shape is None:
                raise ValueError("either a matrix or a payload + shape is required")
            super().__init__(_shape)
            self._payload = _payload

    # -- size -----------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return len(self._payload) + 2 * _HEADER_DTYPE.itemsize

    # -- decompression (the expensive step) ------------------------------------

    def decompress(self) -> DenseMatrix:
        """Decompress to a :class:`DenseMatrix` (pays the full inflate cost).

        The block is inflated here, not in :meth:`decompress_bytes`, so a corrupt
        stream or one whose length disagrees with the header raises
        :class:`~repro.core.validate.EncodingError` here.
        """
        try:
            raw = zlib.decompress(self._payload)
        except zlib.error as exc:
            raise EncodingError(f"{self.scheme_name} block does not inflate: {exc}") from exc
        if len(raw) != self.n_rows * self.n_cols * 8:
            raise EncodingError(
                f"{self.scheme_name} block inflates to {len(raw)} bytes, "
                f"not the {self.n_rows} x {self.n_cols} float64 its header gives"
            )
        data = np.frombuffer(raw, dtype=np.float64).reshape(self.shape)
        return DenseMatrix(data.copy())

    def to_dense(self) -> np.ndarray:
        return self.decompress().to_dense()

    # -- ops: always decompress first ------------------------------------------

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        return self.decompress().matvec(vector)

    def rmatvec(self, vector: np.ndarray) -> np.ndarray:
        return self.decompress().rmatvec(vector)

    def matmat(self, matrix: np.ndarray) -> np.ndarray:
        return self.decompress().matmat(matrix)

    def rmatmat(self, matrix: np.ndarray) -> np.ndarray:
        return self.decompress().rmatmat(matrix)

    def scale(self, scalar: float):
        return type(self)(self.decompress().to_dense() * float(scalar))

    # -- serialisation ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        header = np.array(self.shape, dtype=_HEADER_DTYPE).tobytes()
        # The payload may be a zero-copy memoryview of a shard's bytes.
        return header + bytes(self._payload)

    @classmethod
    def decompress_bytes(cls, raw) -> "_ByteBlockMatrix":
        header_size = 2 * _HEADER_DTYPE.itemsize
        if len(raw) < header_size:
            raise EncodingError(f"{cls.scheme_name} payload of {len(raw)} bytes has no header")
        rows, cols = (int(x) for x in np.frombuffer(raw[:header_size], dtype=_HEADER_DTYPE))
        return cls(_payload=raw[header_size:], _shape=(rows, cols))


class GzipMatrix(_ByteBlockMatrix):
    """Gzip-style baseline: DEFLATE at maximum compression (zlib level 9)."""

    scheme_name = "Gzip"
    level = 9


class SnappyLikeMatrix(_ByteBlockMatrix):
    """Snappy-style baseline: a fast byte compressor (zlib level 1)."""

    scheme_name = "Snappy"
    level = 1
