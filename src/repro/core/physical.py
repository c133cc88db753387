"""Physical encoding of the logical-encoding outputs (Section 3.2).

The arrays making up ``I`` and ``D`` are mostly small non-negative integers,
so they are bit-packed to their minimal byte width; the (float) values of the
first layer are dictionary-encoded with value indexing.  The physical layout
mirrors Figure 3 of the paper:

* ``D``: the concatenated tree-node indexes of all tuples, bit-packed, plus
  the bit-packed tuple start offsets;
* ``I``: the bit-packed column indexes, the bit-packed value indexes, and the
  array of unique values.

An alternative varint layout is provided for the "future work" ablation.
"""

from __future__ import annotations

import struct

import numpy as np

from repro import kernels
from repro.bitpack.bitpacking import pack_integers, read_packed
from repro.bitpack.value_index import build_value_index, read_value_index
from repro.bitpack.varint import encode_varints
from repro.core.logical import LogicalEncoding
from repro.core.validate import EncodingError

_MAGIC = b"TOC1"
#: ``(n_rows, n_cols)`` as little-endian uint64, right after the magic.
_SHAPE = struct.Struct("<QQ")


def physical_encode(encoding: LogicalEncoding) -> bytes:
    """Encode the logical output with bit packing + value indexing, serialised."""
    return (
        _MAGIC
        + _SHAPE.pack(*encoding.shape)
        + pack_integers(encoding.first_layer_columns).to_bytes()
        + build_value_index(encoding.first_layer_values).to_bytes()
        + pack_integers(encoding.codes).to_bytes()
        + pack_integers(encoding.row_offsets).to_bytes()
    )


def physical_decode(raw) -> LogicalEncoding:
    """Parse a TOC payload (bytes or any buffer object) back into ``I`` and ``D``.

    The read path of every TOC shard, so nothing is unpacked into objects
    or copied: the column indexes, the codes and the row offsets are
    ``np.frombuffer`` views of ``raw`` in their packed (unsigned) dtypes
    (a 3-byte width is widened to ``uint32``), and the first-layer values are one gather of the dictionary, which
    stays a view too.  Every block must fit the payload and the last must
    end where it does, value codes must lie inside the dictionary and
    first-layer columns below the header's column count, or
    :class:`~repro.core.validate.EncodingError` is raised;
    :class:`~repro.core.logical.LogicalEncoding` checks the row offsets and
    the codes' lower bound, :func:`repro.core.decode_tree.build_decode_tree`
    the rest.
    """
    raw = memoryview(raw)
    offset = len(_MAGIC) + _SHAPE.size
    if len(raw) < offset:
        raise EncodingError("truncated TOC physical encoding header")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise EncodingError("not a TOC physical encoding (bad magic)")
    shape = _SHAPE.unpack_from(raw, len(_MAGIC))
    columns, offset = read_packed(raw, offset)
    dictionary, value_codes, offset = read_value_index(raw, offset)
    codes, offset = read_packed(raw, offset)
    row_offsets, offset = read_packed(raw, offset)
    if offset != len(raw):
        raise EncodingError(f"TOC payload is {len(raw)} bytes; its blocks end at {offset}")
    try:
        values = dictionary.take(value_codes)
    except IndexError:
        raise EncodingError("value-index codes out of dictionary range") from None
    if columns.size and int(columns.max()) >= shape[1]:
        raise EncodingError(f"first-layer column index out of range for {shape[1]} columns")
    return LogicalEncoding(
        first_layer_columns=columns,
        first_layer_values=values,
        codes=codes,
        row_offsets=row_offsets,
        shape=shape,
    )


def logical_nbytes(encoding: LogicalEncoding) -> int:
    """Size of the logical encoding if stored without physical encoding.

    Used by the ablation experiments (TOC_SPARSE_AND_LOGICAL): column indexes
    and codes as 4-byte integers, values as 8-byte doubles.
    """
    return int(
        encoding.first_layer_columns.size * 4
        + encoding.first_layer_values.size * 8
        + encoding.codes.size * 4
        + encoding.row_offsets.size * 4
    )


# ---------------------------------------------------------------------------
# Varint alternative layout (paper future work / ablation)
# ---------------------------------------------------------------------------


def physical_encode_varint(encoding: LogicalEncoding) -> bytes:
    """Encode the logical output with varints instead of fixed-width packing."""
    header = encode_varints(
        np.array(
            [
                encoding.shape[0],
                encoding.shape[1],
                encoding.first_layer_columns.size,
                encoding.codes.size,
            ],
            dtype=np.int64,
        )
    )
    values = build_value_index(encoding.first_layer_values)
    body = (
        encode_varints(encoding.first_layer_columns)
        + encode_varints(values.codes)
        + encode_varints(np.array([values.dictionary.size], dtype=np.int64))
        + values.dictionary.astype("<f8").tobytes()
        + encode_varints(encoding.codes)
        + encode_varints(encoding.row_offsets)
    )
    return header + body


def physical_decode_varint(raw) -> LogicalEncoding:
    """Inverse of :func:`physical_encode_varint` (accepts any buffer object)."""
    # Varints are self-delimiting, so decode sequentially tracking offsets.
    # Raw float bytes follow the varint segments, so tail validation is off:
    # each take() decodes exactly ``count`` values from the cursor onwards.
    raw = memoryview(raw)
    cursor = 0

    def take(count: int) -> np.ndarray:
        nonlocal cursor
        values, consumed = kernels.varint_decode(raw[cursor:], count, False)
        cursor += consumed
        return values

    n_rows, n_cols, n_first, n_codes = take(4).tolist()
    first_cols = take(n_first)
    value_codes = take(n_first)
    dict_size = int(take(1)[0])
    dictionary = np.frombuffer(raw[cursor : cursor + dict_size * 8], dtype="<f8").copy()
    cursor += dict_size * 8
    first_vals = dictionary[value_codes] if n_first else np.zeros(0, dtype=np.float64)
    codes = take(n_codes)
    row_offsets = take(n_rows + 1)
    return LogicalEncoding(
        first_layer_columns=first_cols,
        first_layer_values=first_vals,
        codes=codes,
        row_offsets=row_offsets,
        shape=(n_rows, n_cols),
    )


__all__ = [
    "physical_encode",
    "physical_decode",
    "physical_encode_varint",
    "physical_decode_varint",
    "logical_nbytes",
]
