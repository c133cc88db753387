"""A shard's label block: the labels' bits, value-indexed (Section 3.2).

Every shard file of a format-3 directory is its payload followed by this
block, so labels travel with their rows and one ``append`` writes only its
own.  Labels are usually a column with a handful of distinct values (two,
for the classification profiles), which is exactly what the paper's
physical layer value-indexes:

.. code-block:: text

    u8  tag          0: raw, 1: value-indexed
    u8  len(dtype)   then the dtype's ``str`` in ASCII (``<f8``, ``|b1`` ...)
    u8  ndim - 1     then each trailing dimension as a u64 (rows come from the manifest)
    raw:            the items' bytes, C order
    value-indexed:  u32 dictionary size, the distinct items' bytes in order of
                    first appearance, then one packed code per item
                    (:func:`~repro.bitpack.bitpacking.pack_integers`)

Items are interned by their bits (:func:`~repro.bitpack.value_index.first_appearance`
on an unsigned view), so ``-0.0``, NaN payloads and the infinities come back
exactly as written.  The raw form is stored whenever it is no larger: a
column of all-distinct floats.  Decoding refuses a truncated block, an
unknown tag or dtype, a code past its dictionary, and trailing bytes with
:class:`~repro.core.validate.EncodingError`.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.bitpack.bitpacking import pack_integers, read_packed
from repro.bitpack.value_index import first_appearance
from repro.core.validate import EncodingError

_RAW, _VALUE_INDEXED = 0, 1
_BYTE = struct.Struct("<B")
_DIM = struct.Struct("<Q")
_COUNT = struct.Struct("<I")


def encode_labels(labels: np.ndarray) -> bytes:
    """One shard's labels as a label block; ``ValueError`` for a dtype no block can hold."""
    labels = np.ascontiguousarray(labels)
    dtype = labels.dtype
    if not _storable(dtype):
        raise ValueError(f"labels of dtype {dtype} and shape {labels.shape} cannot be stored")
    name = dtype.str.encode("ascii")
    trailing = labels.shape[1:]
    header = b"".join(
        (_BYTE.pack(len(name)), name, _BYTE.pack(len(trailing)), *map(_DIM.pack, trailing))
    )
    body = labels.tobytes()
    if dtype.itemsize in (1, 2, 4, 8) and labels.size:
        items = labels.reshape(-1)
        first, codes = first_appearance(items.view(f"u{dtype.itemsize}"))
        indexed = b"".join(
            (_COUNT.pack(first.size), items[first].tobytes(), pack_integers(codes).to_bytes())
        )
        if len(indexed) < len(body):
            return _BYTE.pack(_VALUE_INDEXED) + header + indexed
    return _BYTE.pack(_RAW) + header + body


def _storable(dtype: np.dtype) -> bool:
    """Whether ``dtype`` is a fixed-size one its ``str`` names exactly (no objects, no fields)."""
    return not dtype.hasobject and dtype.itemsize > 0 and np.dtype(dtype.str) == dtype


def decode_labels(block, n_rows: int) -> np.ndarray:
    """The ``n_rows``-row label array stored in ``block``, as a writable array of its own."""
    try:
        tag, name_size = struct.unpack_from("<BB", block, 0)
        offset = 2 + name_size
        dtype = np.dtype(bytes(block[2:offset]).decode("ascii"))
        (n_trailing,) = _BYTE.unpack_from(block, offset)
        trailing = struct.unpack_from(f"<{n_trailing}Q", block, offset + 1)
        offset += 1 + n_trailing * _DIM.size
    except (struct.error, TypeError, ValueError) as error:
        raise EncodingError(f"unreadable label block header: {error}") from None
    if not _storable(dtype):
        raise EncodingError(f"label block names dtype {dtype}, which no block holds")
    shape = (n_rows, *trailing)
    count = math.prod(shape)
    if tag == _RAW:
        if len(block) - offset != count * dtype.itemsize:
            raise EncodingError(
                f"label block holds {len(block) - offset} bytes of {dtype} labels; "
                f"{shape} needs {count * dtype.itemsize}"
            )
        return np.frombuffer(block, dtype, count, offset).reshape(shape).copy()
    if tag != _VALUE_INDEXED:
        raise EncodingError(f"unknown label block tag {tag}")
    if len(block) < offset + _COUNT.size:
        raise EncodingError("truncated label dictionary size")
    (size,) = _COUNT.unpack_from(block, offset)
    offset += _COUNT.size
    if len(block) < offset + size * dtype.itemsize:
        raise EncodingError("truncated label dictionary")
    dictionary = np.frombuffer(block, dtype, size, offset)
    codes, end = read_packed(block, offset + size * dtype.itemsize)
    if codes.size != count or end != len(block):
        raise EncodingError(
            f"label block holds {codes.size} codes in {len(block)} bytes; "
            f"{shape} needs {count} codes ending at byte {end}"
        )
    if count and int(codes.max()) >= size:
        raise EncodingError(f"label code {int(codes.max())} past a dictionary of {size}")
    return dictionary[codes].reshape(shape)


__all__ = ["decode_labels", "encode_labels"]
