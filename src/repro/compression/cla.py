"""CLA — a simplified re-implementation of Compressed Linear Algebra.

The paper compares TOC against CLA (Elgohary et al., VLDB 2016) as used in
SystemML.  We reproduce the parts of CLA that the comparison exercises:

* columns are partitioned into *co-coding groups* of columns whose value
  tuples repeat together (greedy grouping by distinct-tuple count);
* each group stores an explicit dictionary of its distinct value tuples plus,
  per row, a bit-packed index into that dictionary (the "DDC" dense
  dictionary encoding of CLA); columns that do not compress well are kept as
  an uncompressed column group;
* matrix operations execute directly on the compressed groups by first
  aggregating per dictionary entry, then scanning the (small) dictionary —
  the same pre-aggregation trick CLA uses.

The defining behaviour the paper's argument relies on — the *explicit*
dictionary whose cost is not amortised on small mini-batches — is preserved:
``nbytes`` counts the full dictionaries, so CLA's ratio degrades on 50–250
row batches exactly as in Figure 5.
"""

from __future__ import annotations

import numpy as np

from repro.bitpack.bitpacking import pack_integers
from repro.compression.base import CompressedMatrix, CompressionScheme
from repro.compression.dense import dense_payload, read_dense_payload

#: Groups whose dictionary would exceed this fraction of the rows are kept
#: uncompressed (mirrors CLA's compression-planning ratio estimate).
_MAX_DISTINCT_FRACTION = 0.9

#: Maximum number of columns greedily co-coded into one group.
_MAX_GROUP_COLS = 4


class _ColumnGroup:
    """One co-coded column group with an explicit dictionary (DDC encoding)."""

    def __init__(self, columns: np.ndarray, dictionary: np.ndarray, codes: np.ndarray):
        self.columns = columns          # (g,) original column indexes
        self.dictionary = dictionary    # (d, g) distinct value tuples
        self.codes = codes              # (n,) per-row dictionary index

    @property
    def nbytes(self) -> int:
        return int(
            self.columns.size * 4
            + self.dictionary.nbytes
            + pack_integers(self.codes).nbytes
        )

    def matvec_contribution(self, v: np.ndarray) -> np.ndarray:
        """Contribution of this group to ``A @ v`` (pre-aggregate on the dictionary)."""
        per_entry = self.dictionary @ v[self.columns]
        return per_entry[self.codes]

    def rmatvec_contribution(self, v: np.ndarray, out: np.ndarray) -> None:
        """Add this group's contribution to ``v @ A`` into ``out``."""
        weights = np.bincount(self.codes, weights=v, minlength=self.dictionary.shape[0])
        out[self.columns] += weights @ self.dictionary

    def decode_into(self, dense: np.ndarray) -> None:
        dense[:, self.columns] = self.dictionary[self.codes]


class _UncompressedGroup:
    """Columns kept as plain dense data (CLA's fallback group)."""

    def __init__(self, columns: np.ndarray, data: np.ndarray):
        self.columns = columns
        self.data = data                # (n, g) dense values

    @property
    def nbytes(self) -> int:
        return int(self.columns.size * 4 + self.data.nbytes)

    def matvec_contribution(self, v: np.ndarray) -> np.ndarray:
        return self.data @ v[self.columns]

    def rmatvec_contribution(self, v: np.ndarray, out: np.ndarray) -> None:
        out[self.columns] += v @ self.data

    def decode_into(self, dense: np.ndarray) -> None:
        dense[:, self.columns] = self.data


class CLAMatrix(CompressedMatrix):
    """A mini-batch compressed with (simplified) compressed linear algebra."""

    scheme_name = "CLA"
    supports_direct_ops = True

    def __init__(self, matrix: np.ndarray):
        dense = np.asarray(matrix, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("CLAMatrix expects a 2-D matrix")
        super().__init__(dense.shape)
        self._groups = _plan_groups(dense)
        self._dense_cache: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        return int(sum(group.nbytes for group in self._groups))

    @property
    def n_groups(self) -> int:
        """Number of column groups (compressed + uncompressed)."""
        return len(self._groups)

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        v = self._check_matvec_input(vector)
        result = np.zeros(self.n_rows, dtype=np.float64)
        for group in self._groups:
            result += group.matvec_contribution(v)
        return result

    def rmatvec(self, vector: np.ndarray) -> np.ndarray:
        v = self._check_rmatvec_input(vector)
        result = np.zeros(self.n_cols, dtype=np.float64)
        for group in self._groups:
            group.rmatvec_contribution(v, result)
        return result

    def scale(self, scalar: float) -> "CLAMatrix":
        # Sparse-safe: rescale dictionaries / dense groups without re-planning.
        scaled = CLAMatrix.__new__(CLAMatrix)
        CompressedMatrix.__init__(scaled, self.shape)
        scaled._dense_cache = None
        scaled._groups = []
        for group in self._groups:
            if isinstance(group, _ColumnGroup):
                scaled._groups.append(
                    _ColumnGroup(group.columns, group.dictionary * float(scalar), group.codes)
                )
            else:
                scaled._groups.append(
                    _UncompressedGroup(group.columns, group.data * float(scalar))
                )
        return scaled

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        for group in self._groups:
            group.decode_into(dense)
        return dense

    def to_bytes(self) -> bytes:
        # CLA is only used in-memory by the benches; serialise via the dense
        # form (the storage experiments use DEN/CSR/TOC/GC formats).
        return dense_payload(self.to_dense())

    @classmethod
    def from_bytes(cls, raw) -> "CLAMatrix":
        return cls(read_dense_payload(raw, cls.scheme_name))


def _distinct_tuple_codes(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (dictionary, codes) for the rows of ``block`` (distinct tuples)."""
    dictionary, codes = np.unique(block, axis=0, return_inverse=True)
    return dictionary, codes.astype(np.int64).ravel()


def _plan_groups(dense: np.ndarray) -> list[_ColumnGroup | _UncompressedGroup]:
    """Greedy co-coding plan: group adjacent compressible columns together."""
    n_rows, n_cols = dense.shape
    max_distinct = max(1, int(n_rows * _MAX_DISTINCT_FRACTION))
    groups: list[_ColumnGroup | _UncompressedGroup] = []
    uncompressed_cols: list[int] = []

    col = 0
    while col < n_cols:
        column = dense[:, col]
        distinct = np.unique(column).size
        if distinct > max_distinct:
            uncompressed_cols.append(col)
            col += 1
            continue
        # Greedily extend the group while the joint dictionary stays small.
        group_cols = [col]
        block = column[:, None]
        dictionary, codes = _distinct_tuple_codes(block)
        nxt = col + 1
        while nxt < n_cols and len(group_cols) < _MAX_GROUP_COLS:
            candidate = np.column_stack([block, dense[:, nxt]])
            cand_dict, cand_codes = _distinct_tuple_codes(candidate)
            if cand_dict.shape[0] > max_distinct:
                break
            block = candidate
            dictionary, codes = cand_dict, cand_codes
            group_cols.append(nxt)
            nxt += 1
        groups.append(
            _ColumnGroup(
                columns=np.asarray(group_cols, dtype=np.int64),
                dictionary=dictionary,
                codes=codes,
            )
        )
        col = nxt

    if uncompressed_cols:
        cols = np.asarray(uncompressed_cols, dtype=np.int64)
        groups.append(_UncompressedGroup(columns=cols, data=dense[:, cols].copy()))
    return groups


class CLAScheme(CompressionScheme):
    """Factory for :class:`CLAMatrix`."""

    name = "CLA"

    def compress(self, matrix: np.ndarray) -> CLAMatrix:
        return CLAMatrix(matrix)

    def decompress_bytes(self, raw: bytes) -> CLAMatrix:
        return CLAMatrix.from_bytes(raw)
