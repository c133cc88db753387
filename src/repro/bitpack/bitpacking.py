"""Byte-width bit packing of non-negative integer arrays.

The paper's physical encoding (Section 3.2) stores arrays of small
non-negative integers using ``ceil((floor(log2(max)) + 1) / 8)`` bytes per
integer, plus a small header recording the count and the byte width.  This
module implements exactly that scheme with NumPy, including the uint24 case
(three bytes per integer) that most languages do not support natively.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

#: ``count`` and ``width`` as little-endian uint32, ahead of the payload.
_HEADER = struct.Struct("<II")
_WIDTH_DTYPES = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}
_SUPPORTED_WIDTHS = (1, 2, 3, 4)


class EncodingError(ValueError):
    """Raised when an encoded artefact violates a structural invariant.

    Defined here, in the lowest layer that parses bytes, so every decoder
    can raise it; :mod:`repro.core.validate` is its public home.
    """


def bytes_per_integer(max_value: int) -> int:
    """Return the number of bytes needed to store ``max_value``.

    Follows the paper's formula ``ceil((log2(max) + 1) / 8)`` with the
    convention that an all-zero (or empty) array still uses one byte per
    integer so the representation stays self-describing.
    """
    if max_value < 0:
        raise ValueError(f"bit packing requires non-negative integers, got {max_value}")
    if max_value == 0:
        return 1
    bits = int(max_value).bit_length()
    width = (bits + 7) // 8
    if width > 4:
        raise ValueError(
            f"value {max_value} needs {width} bytes; only widths up to 4 are supported"
        )
    return width


@dataclass(frozen=True)
class PackedIntArray:
    """A packed array of non-negative integers.

    Attributes
    ----------
    data:
        Raw little-endian payload bytes (``count * width`` bytes).  Any
        buffer object works — ``from_bytes`` on a memoryview keeps the
        payload as a zero-copy slice of the caller's buffer.
    count:
        Number of integers stored.
    width:
        Bytes used per integer (1, 2, 3, or 4).
    """

    data: bytes | memoryview
    count: int
    width: int

    def to_bytes(self) -> bytes:
        """Serialise to a self-describing byte string (header + payload)."""
        return _HEADER.pack(self.count, self.width) + bytes(self.data)

    @classmethod
    def from_bytes(cls, raw) -> tuple["PackedIntArray", int]:
        """Parse a packed array from ``raw``; return it and the bytes consumed."""
        count, width, end = _block(raw, 0)
        return cls(data=raw[_HEADER.size : end], count=count, width=width), end

    def unpack(self) -> np.ndarray:
        """Decode back to a ``numpy.ndarray`` of dtype ``int64``."""
        return unpack_integers(self)


def pack_integers(values: np.ndarray | list[int]) -> PackedIntArray:
    """Pack non-negative integers into the smallest supported byte width."""
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size and arr.min() < 0:
        raise ValueError("bit packing requires non-negative integers")
    max_value = int(arr.max()) if arr.size else 0
    width = bytes_per_integer(max_value)
    if width == 3:
        # Pack as uint32 then drop every fourth (most significant) byte.
        as32 = arr.astype("<u4").view(np.uint8).reshape(-1, 4)
        payload = np.ascontiguousarray(as32[:, :3]).tobytes()
    else:
        payload = arr.astype(_WIDTH_DTYPES[width]).tobytes()
    return PackedIntArray(data=payload, count=int(arr.size), width=width)


def unpack_integers(packed: PackedIntArray) -> np.ndarray:
    """Inverse of :func:`pack_integers`."""
    return _as_integers(packed.data, 0, packed.count, packed.width).astype(np.int64)


def read_packed(raw, offset: int = 0) -> tuple[np.ndarray, int]:
    """The packed array at ``raw[offset:]`` as stored, and the offset just past it.

    Widths 1, 2 and 4 come back as a read-only ``np.frombuffer`` view of
    ``raw`` in their own unsigned dtype, so nothing is copied; width 3 is
    widened to ``uint32``.  A truncated block or an unknown width raises
    :class:`EncodingError`.
    """
    count, width, end = _block(raw, offset)
    return _as_integers(raw, offset + _HEADER.size, count, width), end


def _block(raw, offset: int) -> tuple[int, int, int]:
    """Check the header of the packed array at ``offset``: ``(count, width, end)``."""
    if len(raw) < offset + _HEADER.size:
        raise EncodingError("truncated packed-integer header")
    count, width = _HEADER.unpack_from(raw, offset)
    if width not in _SUPPORTED_WIDTHS:
        raise EncodingError(f"unsupported packed-integer width {width}")
    end = offset + _HEADER.size + count * width
    if len(raw) < end:
        raise EncodingError("truncated packed-integer payload")
    return count, width, end


def _as_integers(raw, start: int, count: int, width: int) -> np.ndarray:
    if width == 3:
        # Re-expand three-byte integers into uint32 with a zero leading byte,
        # mirroring the "copy into uint32 and mask" trick from the paper.
        quad = np.zeros((count, 4), dtype=np.uint8)
        quad[:, :3] = np.frombuffer(raw, np.uint8, 3 * count, start).reshape(count, 3)
        return quad.view("<u4").ravel()
    return np.frombuffer(raw, _WIDTH_DTYPES[width], count, start)
