"""Value indexing (dictionary encoding) for floating-point values.

The paper's physical encoding replaces every distinct value in the
column-index:value pairs by an index into an array of unique values
(Section 3.2), and CVI/DVI use the same trick on CSR/DEN matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitpack.bitpacking import EncodingError, pack_integers, read_packed


@dataclass(frozen=True)
class ValueIndex:
    """A dictionary-encoded array of floats.

    Attributes
    ----------
    dictionary:
        The unique values, in first-appearance order.
    codes:
        For each original element, the index of its value in ``dictionary``.
    """

    dictionary: np.ndarray
    codes: np.ndarray

    def __post_init__(self) -> None:
        if self.codes.size and (self.codes.max() >= self.dictionary.size or self.codes.min() < 0):
            raise EncodingError("value-index codes out of dictionary range")

    def decode(self) -> np.ndarray:
        """Materialise the original value array (one gather through the dictionary)."""
        if self.codes.size == 0:
            return np.zeros(0, dtype=np.float64)
        return self.dictionary[self.codes]

    def to_bytes(self) -> bytes:
        """Serialise as packed codes followed by the raw dictionary."""
        packed_codes = pack_integers(self.codes)
        dict_header = pack_integers(np.array([self.dictionary.size], dtype=np.int64))
        return packed_codes.to_bytes() + dict_header.to_bytes() + self.dictionary.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, raw) -> tuple["ValueIndex", int]:
        """Parse a :class:`ValueIndex`; return it and the bytes consumed."""
        dictionary, codes, end = read_value_index(raw)
        return cls(dictionary=dictionary.copy(), codes=codes.astype(np.int64)), end


def read_value_index(raw, offset: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """``(dictionary, codes, end)`` of the value index at ``raw[offset:]``, uncopied.

    Both arrays are read-only views of ``raw`` (codes in their packed dtype,
    see :func:`~repro.bitpack.bitpacking.read_packed`).  The block lengths are
    checked here; the codes' range is the caller's to check.
    """
    codes, offset = read_packed(raw, offset)
    dict_size, offset = read_packed(raw, offset)
    if dict_size.size != 1:
        raise EncodingError("value-index dictionary size must be a single integer")
    end = offset + int(dict_size[0]) * 8
    if len(raw) < end:
        raise EncodingError("truncated value-index dictionary")
    return np.frombuffer(raw, "<f8", int(dict_size[0]), offset), codes, end


def first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intern unsigned integer ``keys`` in order of first appearance.

    Returns ``(first, ids)``: ``first[k]`` is the position of the first
    occurrence of the ``k``-th distinct key, and ``ids[i]`` the ``k`` of
    ``keys[i]``.  Keys no larger than a few times their count (TOC's pair
    symbols, bool labels) index a table of first positions directly, with
    no sort; wider keys are grouped by one unstable sort, and
    ``minimum.reduceat`` finds each group's first position.
    """
    if keys.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    top = int(keys.max())
    if top < 4 * keys.size:
        first_of_key = np.full(top + 1, keys.size, dtype=np.intp)
        np.minimum.at(first_of_key, keys, np.arange(keys.size))
        present = np.flatnonzero(first_of_key < keys.size)
        first = first_of_key[present]
        by_appearance = np.argsort(first)
        id_of_key = np.empty(top + 1, dtype=np.intp)
        id_of_key[present[by_appearance]] = np.arange(present.size)
        return first[by_appearance], id_of_key[keys]
    order = np.argsort(keys)
    ordered = keys[order]
    new_group = np.empty(keys.size, dtype=bool)
    new_group[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    first = np.minimum.reduceat(order, starts)
    by_appearance = np.argsort(first)
    id_of_group = np.empty_like(by_appearance)
    id_of_group[by_appearance] = np.arange(by_appearance.size)
    ids = np.empty_like(order)
    ids[order] = np.repeat(id_of_group, np.diff(starts, append=keys.size))
    return first[by_appearance], ids


def build_value_index(values: np.ndarray | list[float]) -> ValueIndex:
    """Dictionary-encode ``values`` preserving first-appearance order.

    Values group by float equality, as ``np.unique`` groups them: ``-0.0``
    joins ``+0.0`` and every NaN is one value.  Each entry is the first
    occurrence's bits, so the dictionary is the input's own values.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64).ravel()
    keys = np.where(arr == arr, arr + 0.0, np.nan).view(np.uint64)
    first, codes = first_appearance(keys)
    return ValueIndex(dictionary=arr[first], codes=codes.astype(np.int64, copy=False))
