"""DVI — dense layout with value indexing.

Every cell of the dense matrix (zeros included) is replaced by a bit-packed
index into the dictionary of distinct values.  DVI keeps the dense row-major
structure, so operations stream through the codes; it shines when the value
domain is tiny (e.g. heavily quantised features) and the matrix is not
sparse enough for CSR to pay off.
"""

from __future__ import annotations

import numpy as np

from repro.bitpack.value_index import ValueIndex, build_value_index
from repro.compression.base import CompressedMatrix
from repro.core.validate import EncodingError

_HEADER_DTYPE = np.dtype("<u8")


class DVIMatrix(CompressedMatrix):
    """Dense matrix with dictionary-encoded cells."""

    scheme_name = "DVI"
    supports_direct_ops = True
    scan_pushdown = True
    dictionary_probe = True

    def __init__(self, matrix: np.ndarray):
        dense = np.asarray(matrix, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("DVIMatrix expects a 2-D matrix")
        super().__init__(dense.shape)
        self._values = build_value_index(dense.ravel())

    @property
    def nbytes(self) -> int:
        return int(self._values.nbytes)

    def _codes_matrix(self) -> np.ndarray:
        return self._values.codes.reshape(self.shape)

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        v = self._check_matvec_input(vector)
        # Direct execution on codes: for each row, sum dictionary[code] * v[col].
        data = self._values.dictionary[self._codes_matrix()]
        return data @ v

    def rmatvec(self, vector: np.ndarray) -> np.ndarray:
        v = self._check_rmatvec_input(vector)
        data = self._values.dictionary[self._codes_matrix()]
        return v @ data

    def matmat(self, matrix: np.ndarray) -> np.ndarray:
        data = self._values.dictionary[self._codes_matrix()]
        return data @ np.asarray(matrix, dtype=np.float64)

    def rmatmat(self, matrix: np.ndarray) -> np.ndarray:
        data = self._values.dictionary[self._codes_matrix()]
        return np.asarray(matrix, dtype=np.float64) @ data

    def scale(self, scalar: float) -> "DVIMatrix":
        scaled = DVIMatrix.__new__(DVIMatrix)
        CompressedMatrix.__init__(scaled, self.shape)
        scaled._values = ValueIndex(
            dictionary=self._values.dictionary * float(scalar), codes=self._values.codes
        )
        return scaled

    def to_dense(self) -> np.ndarray:
        return self._values.decode().reshape(self.shape)

    def _row_slice_rows(self, index: np.ndarray) -> np.ndarray:
        # Decode only the requested rows' codes (the default would build a
        # selection matrix and multiply through a full decode).
        return self._values.dictionary[self._codes_matrix()[index]]

    # -- scan push-down: probe the dictionary, gather through the codes -------

    def columns(self, cols) -> np.ndarray:
        """Columns ``cols`` as a dense ``(rows, len(cols))`` block."""
        return self._values.dictionary[self._codes_matrix()[:, np.asarray(cols, dtype=np.intp)]]

    def compare(self, col: int, test, value: float) -> np.ndarray:
        """Rows where ``test(column, value)`` holds: ``test`` runs once per
        distinct value, and its answers are gathered through the column's
        codes (O(rows) boolean gathers, no float decode)."""
        return test(self._values.dictionary, value)[self._codes_matrix()[:, col]]

    def column_stats(self, col: int, mask: np.ndarray | None):
        """``(count, sum, min, max)`` of the kept rows of ``col``, from its code
        frequencies (one ``bincount``); ``None`` when no row is kept."""
        codes = self._codes_matrix()[:, col]
        if mask is not None:
            codes = codes[mask]
        if codes.size == 0:
            return None
        dictionary = self._values.dictionary
        frequencies = np.bincount(codes, minlength=dictionary.size)
        kept = frequencies > 0
        present = dictionary[kept]
        # Only values that occur are multiplied: 0 * inf would be NaN.
        total = float((frequencies[kept] * present).sum())
        return int(codes.size), total, float(present.min()), float(present.max())

    def to_bytes(self) -> bytes:
        header = np.array(self.shape, dtype=_HEADER_DTYPE).tobytes()
        return header + self._values.to_bytes()

    @classmethod
    def decompress_bytes(cls, raw) -> "DVIMatrix":
        """Rebuild a matrix from :meth:`to_bytes` output.

        The code count must be ``rows × cols`` and every code must index the
        dictionary; a payload that fails raises
        :class:`~repro.core.validate.EncodingError`.
        """
        header_size = 2 * _HEADER_DTYPE.itemsize
        if len(raw) < header_size:
            raise EncodingError(f"DVI payload of {len(raw)} bytes has no header")
        rows, cols = (int(x) for x in np.frombuffer(raw[:header_size], dtype=_HEADER_DTYPE))
        values, consumed = ValueIndex.from_bytes(raw[header_size:])
        if header_size + consumed != len(raw):
            raise EncodingError(
                f"DVI payload is {len(raw)} bytes; its blocks end at {header_size + consumed}"
            )
        if values.codes.size != rows * cols:
            raise EncodingError(
                f"DVI payload holds {values.codes.size} codes; its header ({rows} x {cols}) "
                f"needs {rows * cols}"
            )
        instance = cls.__new__(cls)
        CompressedMatrix.__init__(instance, (rows, cols))
        instance._values = values
        return instance
