"""CVI (CSR-VI) — compressed sparse row with value indexing.

The CSR data array is dictionary-encoded: the distinct non-zero values live
in a small dictionary and each stored cell keeps only a bit-packed index into
it.  Matrix operations run directly on the compressed representation by
looking values up through the dictionary.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.bitpack.bitpacking import PackedIntArray, pack_integers
from repro.bitpack.value_index import ValueIndex, build_value_index
from repro.compression.base import CompressedMatrix
from repro.compression.csr import check_row_layout, gather_rows
from repro.core.validate import EncodingError

_HEADER_DTYPE = np.dtype("<u8")


class CVIMatrix(CompressedMatrix):
    """CSR structure with a value-indexed data array."""

    scheme_name = "CVI"
    supports_direct_ops = True
    scan_pushdown = True
    dictionary_probe = True

    def __init__(self, matrix: np.ndarray | sp.csr_matrix):
        if sp.issparse(matrix):
            csr = matrix.tocsr().astype(np.float64)
        else:
            csr = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
        # Sorted, unique column indexes per row, the only layout
        # ``decompress_bytes`` accepts.
        csr.sum_duplicates()
        csr.eliminate_zeros()
        super().__init__(csr.shape)
        self._indptr = csr.indptr.astype(np.int64)
        self._indices = csr.indices.astype(np.int64)
        self._values = build_value_index(csr.data)

    @property
    def nbytes(self) -> int:
        packed_cols = pack_integers(self._indices)
        packed_offsets = pack_integers(self._indptr)
        return int(packed_cols.nbytes + packed_offsets.nbytes + self._values.nbytes)

    @property
    def nnz(self) -> int:
        return int(self._indices.size)

    def _to_scipy(self) -> sp.csr_matrix:
        data = self._values.decode()
        return sp.csr_matrix((data, self._indices, self._indptr), shape=self.shape)

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        v = self._check_matvec_input(vector)
        # Direct execution: gather dictionary values per stored cell; the
        # dictionary lookup replaces the dense data array of plain CSR.
        data = self._values.dictionary[self._values.codes]
        contrib = data * v[self._indices]
        result = np.zeros(self.n_rows, dtype=np.float64)
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self._indptr))
        np.add.at(result, row_ids, contrib)
        return result

    def rmatvec(self, vector: np.ndarray) -> np.ndarray:
        v = self._check_rmatvec_input(vector)
        data = self._values.dictionary[self._values.codes]
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self._indptr))
        contrib = data * v[row_ids]
        result = np.zeros(self.n_cols, dtype=np.float64)
        np.add.at(result, self._indices, contrib)
        return result

    def matmat(self, matrix: np.ndarray) -> np.ndarray:
        return self._to_scipy() @ np.asarray(matrix, dtype=np.float64)

    def rmatmat(self, matrix: np.ndarray) -> np.ndarray:
        return np.asarray(matrix, dtype=np.float64) @ self._to_scipy()

    def scale(self, scalar: float) -> "CVIMatrix":
        # Sparse-safe: only the dictionary needs rescaling.
        scaled = CVIMatrix.__new__(CVIMatrix)
        CompressedMatrix.__init__(scaled, self.shape)
        scaled._indptr = self._indptr
        scaled._indices = self._indices
        scaled._values = ValueIndex(
            dictionary=self._values.dictionary * float(scalar), codes=self._values.codes
        )
        return scaled

    def to_dense(self) -> np.ndarray:
        return np.asarray(self._to_scipy().todense(), dtype=np.float64)

    def _row_slice_rows(self, index: np.ndarray) -> np.ndarray:
        # Only the requested rows' stored cells, each looked up through the
        # dictionary: never the whole data array, never a selection matmul.
        dictionary, codes = self._values.dictionary, self._values.codes
        return gather_rows(
            self._indptr, self._indices, index, self.n_cols,
            lambda positions: dictionary[codes[positions]],
        )

    # -- scan push-down: stored cells through the dictionary, the rest are 0 ----

    def _column_entries(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """``(row_ids, codes)`` of the stored cells in ``col`` (one O(nnz) index scan)."""
        positions = np.flatnonzero(self._indices == col)
        rows = np.searchsorted(self._indptr, positions, side="right") - 1
        return rows, self._values.codes[positions]

    def columns(self, cols) -> np.ndarray:
        """Columns ``cols`` as a dense ``(rows, len(cols))`` block, implicit zeros included."""
        block = np.zeros((self.n_rows, len(cols)), dtype=np.float64)
        for j, col in enumerate(cols):
            rows, codes = self._column_entries(col)
            block[rows, j] = self._values.dictionary[codes]
        return block

    def compare(self, col: int, test, value: float) -> np.ndarray:
        """Rows where ``test(column, value)`` holds: the stored cells through
        the dictionary's answers, every other row the answer for 0.0."""
        rows, codes = self._column_entries(col)
        mask = np.full(self.n_rows, bool(test(0.0, value)), dtype=bool)
        mask[rows] = test(self._values.dictionary, value)[codes]
        return mask

    def column_stats(self, col: int, mask: np.ndarray | None):
        """``(count, sum, min, max)`` of the kept rows of ``col`` from its stored
        cells alone; ``None`` when no row is kept."""
        rows, codes = self._column_entries(col)
        kept = self.n_rows if mask is None else int(np.count_nonzero(mask))
        if kept == 0:
            return None
        if mask is not None:
            within = mask[rows]
            rows, codes = rows[within], codes[within]
        stored = self._values.dictionary[codes]
        total = float(stored.sum())
        lowest = float(stored.min()) if stored.size else 0.0
        highest = float(stored.max()) if stored.size else 0.0
        if rows.size < kept:  # implicit zeros are part of the column
            lowest, highest = min(lowest, 0.0), max(highest, 0.0)
        return kept, total, lowest, highest

    def to_bytes(self) -> bytes:
        header = np.array(
            [self.n_rows, self.n_cols, self.nnz], dtype=_HEADER_DTYPE
        ).tobytes()
        return (
            header
            + pack_integers(self._indptr).to_bytes()
            + pack_integers(self._indices).to_bytes()
            + self._values.to_bytes()
        )

    @classmethod
    def decompress_bytes(cls, raw) -> "CVIMatrix":
        """Rebuild a matrix from :meth:`to_bytes` output.

        The block lengths, the row layout (:func:`~repro.compression.csr.check_row_layout`)
        and every dictionary code are checked before anything indexes with
        them; a payload that fails raises
        :class:`~repro.core.validate.EncodingError`.
        """
        header_size = 3 * _HEADER_DTYPE.itemsize
        if len(raw) < header_size:
            raise EncodingError(f"CVI payload of {len(raw)} bytes has no header")
        rows, cols, nnz = (
            int(x) for x in np.frombuffer(raw[:header_size], dtype=_HEADER_DTYPE)
        )
        offset = header_size
        indptr, consumed = PackedIntArray.from_bytes(raw[offset:])
        offset += consumed
        indices, consumed = PackedIntArray.from_bytes(raw[offset:])
        offset += consumed
        values, consumed = ValueIndex.from_bytes(raw[offset:])
        offset += consumed
        if offset != len(raw):
            raise EncodingError(f"CVI payload is {len(raw)} bytes; its blocks end at {offset}")
        if (indptr.count, indices.count, values.codes.size) != (rows + 1, nnz, nnz):
            raise EncodingError(
                f"CVI blocks hold {indptr.count} offsets, {indices.count} columns and "
                f"{values.codes.size} values; its header ({rows} x {cols}) needs "
                f"{rows + 1}, {nnz} and {nnz}"
            )
        instance = cls.__new__(cls)
        CompressedMatrix.__init__(instance, (rows, cols))
        instance._indptr = indptr.unpack()
        instance._indices = indices.unpack()
        instance._values = values
        check_row_layout(instance._indptr, instance._indices, cols, "CVI")
        return instance
