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
the payload stores every group's full dictionary, so CLA's ratio degrades on
50–250 row batches exactly as in Figure 5.

The payload is the ``CLA1`` magic, a header of four little-endian uint64s
(rows, columns, compressed groups, uncompressed columns), then each
compressed group — its column and dictionary-entry counts as two uint32s,
its columns (4 bytes each), its dictionary of doubles and its bit-packed
codes — and last the uncompressed group's columns and row-major doubles.
Parsing reads the groups back; it never re-plans them.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.bitpack.bitpacking import pack_integers, read_packed
from repro.compression.base import CompressedMatrix
from repro.core.validate import EncodingError

#: Groups whose dictionary would exceed this fraction of the rows are kept
#: uncompressed (mirrors CLA's compression-planning ratio estimate).
_MAX_DISTINCT_FRACTION = 0.9

#: Maximum number of columns greedily co-coded into one group.
_MAX_GROUP_COLS = 4

_MAGIC = b"CLA1"
#: ``(rows, cols, compressed groups, uncompressed columns)``, after the magic.
_HEADER = struct.Struct("<QQQQ")
#: ``(columns, dictionary entries)`` ahead of each compressed group.
_GROUP = struct.Struct("<II")


class _ColumnGroup:
    """One co-coded column group with an explicit dictionary (DDC encoding)."""

    def __init__(self, columns: np.ndarray, dictionary: np.ndarray, codes: np.ndarray):
        self.columns = columns          # (g,) original column indexes
        self.dictionary = dictionary    # (d, g) distinct value tuples
        self.codes = codes              # (n,) per-row dictionary index

    def to_bytes(self) -> bytes:
        return (
            _GROUP.pack(self.columns.size, self.dictionary.shape[0])
            + self.columns.astype("<u4").tobytes()
            + self.dictionary.astype("<f8").tobytes()
            + pack_integers(self.codes).to_bytes()
        )

    def scale(self, scalar: float) -> "_ColumnGroup":
        return _ColumnGroup(self.columns, self.dictionary * scalar, self.codes)

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

    def to_bytes(self) -> bytes:
        return self.columns.astype("<u4").tobytes() + self.data.astype("<f8").tobytes()

    def scale(self, scalar: float) -> "_UncompressedGroup":
        return _UncompressedGroup(self.columns, self.data * scalar)

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

    @classmethod
    def _from_groups(cls, shape, groups) -> "CLAMatrix":
        """A matrix over ``groups`` as they are: no planning."""
        instance = cls.__new__(cls)
        CompressedMatrix.__init__(instance, shape)
        instance._groups = groups
        return instance

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
        return self._from_groups(self.shape, [g.scale(float(scalar)) for g in self._groups])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        for group in self._groups:
            group.decode_into(dense)
        return dense

    def to_bytes(self) -> bytes:
        # The planner puts the one uncompressed group, if any, last.
        coded = sum(isinstance(group, _ColumnGroup) for group in self._groups)
        plain = sum(g.columns.size for g in self._groups if isinstance(g, _UncompressedGroup))
        header = _MAGIC + _HEADER.pack(*self.shape, coded, plain)
        return header + b"".join(group.to_bytes() for group in self._groups)

    @classmethod
    def decompress_bytes(cls, raw) -> "CLAMatrix":
        """Read the groups back from :meth:`to_bytes` output, as views of ``raw``.

        Every block must fit the payload and the last must end where it
        does, each group's codes must be one per row and index its
        dictionary, and the groups must hold each column exactly once, or
        :class:`~repro.core.validate.EncodingError` is raised.
        """
        offset = len(_MAGIC) + _HEADER.size
        if len(raw) < offset or bytes(raw[: len(_MAGIC)]) != _MAGIC:
            raise EncodingError(f"not a CLA payload: {len(raw)} bytes without its magic and header")
        rows, cols, n_coded, n_plain = _HEADER.unpack_from(raw, len(_MAGIC))
        groups: list[_ColumnGroup | _UncompressedGroup] = []
        for _ in range(n_coded):
            if len(raw) < offset + _GROUP.size:
                raise EncodingError("truncated CLA group header")
            width, entries = _GROUP.unpack_from(raw, offset)
            columns, offset = _read(raw, offset + _GROUP.size, "<u4", width)
            dictionary, offset = _read(raw, offset, "<f8", entries * width)
            codes, offset = read_packed(raw, offset)
            if width == 0 or codes.size != rows or (rows and int(codes.max()) >= entries):
                raise EncodingError(
                    f"a CLA group of {width} columns holds {codes.size} codes for "
                    f"{entries} entries; the header gives {rows} rows"
                )
            groups.append(_ColumnGroup(columns, dictionary.reshape(entries, width), codes))
        if n_plain:
            columns, offset = _read(raw, offset, "<u4", n_plain)
            data, offset = _read(raw, offset, "<f8", rows * n_plain)
            groups.append(_UncompressedGroup(columns, data.reshape(rows, n_plain)))
        if offset != len(raw):
            raise EncodingError(f"CLA payload is {len(raw)} bytes; its groups end at {offset}")
        covered = np.sort(np.concatenate([g.columns for g in groups] or [np.zeros(0, "<u4")]))
        if covered.size != cols or not np.array_equal(covered, np.arange(covered.size)):
            raise EncodingError(f"CLA groups must hold each of the {cols} columns once")
        return cls._from_groups((rows, cols), groups)


def _read(raw, offset: int, dtype: str, count: int) -> tuple[np.ndarray, int]:
    """``count`` items of ``dtype`` at ``raw[offset:]`` as a view, and the offset past them."""
    end = offset + np.dtype(dtype).itemsize * count
    if len(raw) < end:
        raise EncodingError("truncated CLA payload")
    return np.frombuffer(raw, dtype, count, offset), end


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
