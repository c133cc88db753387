"""Physical encoding of the logical-encoding outputs (Section 3.2).

The arrays making up ``I`` and ``D`` are mostly small non-negative integers,
so they are bit-packed to their minimal byte width; the (float) values of the
first layer are dictionary-encoded with value indexing.  The physical layout
mirrors Figure 3 of the paper:

* ``D``: the concatenated tree-node indexes of all tuples, bit-packed, plus
  the bit-packed tuple start offsets;
* ``I``: the bit-packed column indexes, the bit-packed value indexes, and the
  array of unique values.

:func:`unpacked_encode` stores the same arrays at fixed widths instead, the
layout of the ``TOC_SPARSE_AND_LOGICAL`` ablation.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.bitpack.bitpacking import pack_integers, read_packed
from repro.bitpack.value_index import build_value_index, read_value_index
from repro.core.logical import LogicalEncoding
from repro.core.validate import EncodingError

_MAGIC = b"TOC1"
#: ``(n_rows, n_cols)`` as little-endian uint64, right after the magic.
_SHAPE = struct.Struct("<QQ")
_UNPACKED_MAGIC = b"TOCL"
#: ``(n_rows, n_cols, first-layer pairs, codes)``, right after the magic.
_UNPACKED_HEADER = struct.Struct("<QQQQ")


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
    return _parsed(columns, values, codes, row_offsets, shape)


def unpacked_encode(encoding: LogicalEncoding) -> bytes:
    """``I`` and ``D`` stored without the physical layer (the Figure 6 ablation).

    The ``TOCL`` magic, then ``(rows, cols, first-layer pairs, codes)`` as
    little-endian uint64s, then the first-layer columns as uint32, their
    values as doubles, the codes and the row offsets as uint32: no bit
    packing and no value index.
    """
    return (
        _UNPACKED_MAGIC
        + _UNPACKED_HEADER.pack(*encoding.shape, encoding.n_first_layer, encoding.n_codes)
        + encoding.first_layer_columns.astype("<u4").tobytes()
        + encoding.first_layer_values.astype("<f8").tobytes()
        + encoding.codes.astype("<u4").tobytes()
        + encoding.row_offsets.astype("<u4").tobytes()
    )


def unpacked_decode(raw) -> LogicalEncoding:
    """Parse an :func:`unpacked_encode` payload into ``I`` and ``D``, as views of ``raw``.

    A payload without its magic, or of any length but the one its header
    gives, raises :class:`~repro.core.validate.EncodingError`; the arrays
    are checked as :func:`physical_decode`'s are.
    """
    offset = len(_UNPACKED_MAGIC) + _UNPACKED_HEADER.size
    if len(raw) < offset or bytes(raw[: len(_UNPACKED_MAGIC)]) != _UNPACKED_MAGIC:
        raise EncodingError(f"not an unpacked TOC payload: {len(raw)} bytes without its magic")
    rows, cols, n_first, n_codes = _UNPACKED_HEADER.unpack_from(raw, len(_UNPACKED_MAGIC))
    expected = offset + 12 * n_first + 4 * n_codes + 4 * (rows + 1)
    if len(raw) != expected:
        raise EncodingError(
            f"unpacked TOC payload is {len(raw)} bytes; its header ({rows} x {cols}, "
            f"{n_first} pairs, {n_codes} codes) needs {expected}"
        )
    arrays = []
    for dtype, count in (("<u4", n_first), ("<f8", n_first), ("<u4", n_codes), ("<u4", rows + 1)):
        arrays.append(np.frombuffer(raw, dtype, count, offset))
        offset += arrays[-1].nbytes
    return _parsed(*arrays, (rows, cols))


def _parsed(columns, values, codes, row_offsets, shape) -> LogicalEncoding:
    """The parsed arrays as ``I`` and ``D``, once the first-layer columns fit ``shape``."""
    if columns.size and int(columns.max()) >= shape[1]:
        raise EncodingError(f"first-layer column index out of range for {shape[1]} columns")
    return LogicalEncoding(
        first_layer_columns=columns,
        first_layer_values=values,
        codes=codes,
        row_offsets=row_offsets,
        shape=shape,
    )


__all__ = [
    "physical_encode",
    "physical_decode",
    "unpacked_encode",
    "unpacked_decode",
]
