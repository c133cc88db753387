"""Value indexing (dictionary encoding) for floating-point values.

The paper's physical encoding replaces every distinct value in the
column-index:value pairs by an index into an array of unique values
(Section 3.2), and CVI/DVI use the same trick on CSR/DEN matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.bitpack.bitpacking import EncodingError, PackedIntArray, pack_integers


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

    @property
    def nbytes(self) -> int:
        """Physical size: exactly the length of the serialised form."""
        return len(self.to_bytes())

    def decode(self) -> np.ndarray:
        """Materialise the original value array (batched kernel gather)."""
        if self.codes.size == 0:
            return np.zeros(0, dtype=np.float64)
        return kernels.vi_gather(self.dictionary, self.codes)

    def to_bytes(self) -> bytes:
        """Serialise as packed codes followed by the raw dictionary."""
        packed_codes = pack_integers(self.codes)
        dict_header = pack_integers(np.array([self.dictionary.size], dtype=np.int64))
        return packed_codes.to_bytes() + dict_header.to_bytes() + self.dictionary.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, raw) -> tuple["ValueIndex", int]:
        """Parse a :class:`ValueIndex`; return it and the bytes consumed."""
        packed_codes, offset = PackedIntArray.from_bytes(raw)
        dict_header, consumed = PackedIntArray.from_bytes(raw[offset:])
        offset += consumed
        if dict_header.count != 1:
            raise EncodingError("value-index dictionary size must be a single integer")
        dict_size = int.from_bytes(dict_header.data, "little")
        end = offset + dict_size * 8
        if len(raw) < end:
            raise EncodingError("truncated value-index dictionary")
        dictionary = np.frombuffer(raw[offset:end], dtype="<f8").copy()
        codes = packed_codes.unpack()
        return cls(dictionary=dictionary, codes=codes), end


def build_value_index(values: np.ndarray | list[float]) -> ValueIndex:
    """Dictionary-encode ``values`` preserving first-appearance order."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return ValueIndex(dictionary=np.zeros(0, dtype=np.float64), codes=np.zeros(0, dtype=np.int64))
    # np.unique sorts; recover first-appearance order so encodings are stable
    # with respect to the input stream (useful for deterministic tests).
    uniques, first_pos, inverse = np.unique(arr, return_index=True, return_inverse=True)
    order = np.argsort(first_pos, kind="stable")
    dictionary = uniques[order]
    remap = np.empty_like(order)
    remap[order] = np.arange(order.size)
    codes = remap[inverse]
    return ValueIndex(dictionary=dictionary, codes=codes.astype(np.int64))
