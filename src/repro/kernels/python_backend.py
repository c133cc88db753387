"""Pure-Python reference kernels.

These are the original per-element loops the NumPy kernels replaced.  They
stay byte-for-byte compatible with the vectorized implementations and serve
two purposes: the equivalence baseline for the property tests in
``tests/kernels/`` and the "before" timings of ``benchmarks/bench_kernels.py``
(whose CI gate asserts the NumPy kernels actually beat them).

Every function here matches the signature of its ``numpy_backend`` twin.
Nothing at run time calls them: :mod:`repro.kernels` exports the NumPy ones.
"""

from __future__ import annotations

import numpy as np

#: Longest varint either implementation accepts: 9 payload bytes cover the 63 bits
#: of a non-negative ``int64`` — anything longer cannot round-trip.
MAX_VARINT_BYTES = 9


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode non-negative int64 values, one Python int at a time."""
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size and arr.min() < 0:
        raise ValueError("varint encoding requires non-negative integers")
    out = bytearray()
    for value in arr.tolist():
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def varint_decode(
    raw, count: int | None = None, validate_tail: bool = True
) -> tuple[np.ndarray, int]:
    """Decode varints byte by byte; return ``(values, bytes_consumed)``.

    With ``validate_tail=True`` the *whole* buffer must consist of complete
    varints: a stream that ends mid-value raises even when ``count`` values
    were already decoded — a truncated tail means the writer was
    interrupted, and silently accepting it would let corruption ride along
    behind a satisfied ``count``.  ``validate_tail=False`` is for decoding a
    varint prefix of a heterogeneous buffer (the TOC varint layout follows
    code streams with raw float bytes): decoding stops at the ``count``-th
    value and the bytes after it are never inspected.
    """
    buf = bytes(raw)
    if count == 0 and not validate_tail:
        return np.zeros(0, dtype=np.int64), 0
    values: list[int] = []
    consumed = 0
    current = 0
    shift = 0
    length = 0
    for position, byte in enumerate(buf):
        current |= (byte & 0x7F) << shift
        length += 1
        if length > MAX_VARINT_BYTES:
            raise ValueError(f"varint longer than {MAX_VARINT_BYTES} bytes overflows int64")
        if byte & 0x80:
            shift += 7
        else:
            values.append(current)
            if count is None or len(values) <= count:
                consumed = position + 1
            current = 0
            shift = 0
            length = 0
            if count is not None and len(values) == count and not validate_tail:
                break
    if shift != 0:
        raise ValueError("truncated varint stream")
    if count is not None:
        if len(values) < count:
            raise ValueError(f"expected {count} varints, decoded only {len(values)}")
        values = values[:count]
    return np.asarray(values, dtype=np.int64), consumed


def toc_row_slice(
    codes: np.ndarray,
    row_offsets: np.ndarray,
    key_columns: np.ndarray,
    key_values: np.ndarray,
    parents: np.ndarray,
    index: np.ndarray,
    n_cols: int,
) -> np.ndarray:
    """Decode the selected rows of a TOC logical encoding, one pair at a time.

    For every requested row, walk each of its codes up the decode tree and
    write the key pairs into the dense output — the reference the vectorized
    gather is tested against.
    """
    out = np.zeros((len(index), int(n_cols)), dtype=np.float64)
    for out_row, row in enumerate(np.asarray(index, dtype=np.intp).tolist()):
        start, end = int(row_offsets[row]), int(row_offsets[row + 1])
        for code in codes[start:end].tolist():
            node = int(code)
            while node != 0:
                out[out_row, int(key_columns[node])] = float(key_values[node])
                node = int(parents[node])
    return out


def vi_gather(dictionary: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Materialise a value-indexed array by looking codes up one at a time."""
    return np.asarray(
        [float(dictionary[int(code)]) for code in np.asarray(codes).ravel().tolist()],
        dtype=np.float64,
    ).reshape(np.asarray(codes).shape)
