"""Vectorized NumPy kernels — the one implementation every caller runs.

Each kernel replaces a per-element Python loop with whole-array NumPy
passes:

* varint encode/decode — a vectorized continuation-bit scan over the byte
  stream (terminator positions locate every value; at most nine whole-array
  passes assemble the 7-bit groups) instead of one Python int per byte;
* ``toc_row_slice`` — gathers only the *selected* rows' code runs and walks
  them up the decode tree in lockstep, ``O(selected codes × depth)`` instead
  of the ``O(rows × n_rows)`` selection-matrix multiply;
* ``vi_gather`` — one fancy-indexing gather through the value dictionary.

Results are bit-identical to :mod:`repro.kernels.python_backend` (enforced
by the property tests in ``tests/kernels/``).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.python_backend import MAX_VARINT_BYTES

#: Thresholds for the byte width of each varint: value >= _WIDTH_EDGES[k]
#: needs at least k + 2 payload bytes.
_WIDTH_EDGES = [1 << (7 * k) for k in range(1, MAX_VARINT_BYTES)]


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode non-negative int64 values in whole-array passes."""
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size == 0:
        return b""
    if arr.min() < 0:
        raise ValueError("varint encoding requires non-negative integers")
    # Bytes per value: one 7-bit group per value, plus one per crossed edge.
    widths = np.ones(arr.size, dtype=np.int64)
    for edge in _WIDTH_EDGES:
        widths += arr >= edge
    total = int(widths.sum())
    starts = np.zeros(arr.size, dtype=np.int64)
    np.cumsum(widths[:-1], out=starts[1:])
    # Emit one 7-bit group position per pass (at most nine), over only the
    # values that still have a byte at that position; a byte that is not its
    # varint's last carries the continuation bit.
    out = np.empty(total, dtype=np.uint8)
    active = np.arange(arr.size, dtype=np.int64)
    for group in range(MAX_VARINT_BYTES):
        byte = (arr[active] >> (7 * group)) & 0x7F
        continuing = widths[active] > group + 1
        out[starts[active] + group] = byte | (continuing << 7)
        active = active[continuing]
        if active.size == 0:
            break
    return out.tobytes()


def varint_decode(
    raw, count: int | None = None, validate_tail: bool = True
) -> tuple[np.ndarray, int]:
    """Vectorized continuation-bit scan; see the Python reference for semantics."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    terminators = np.flatnonzero((buf & 0x80) == 0)
    n_complete = int(terminators.size)
    if count is None:
        n_values = n_complete
        check_whole_buffer = True
    else:
        if n_complete < count:
            if buf.size and buf[-1] & 0x80:
                raise ValueError("truncated varint stream")
            raise ValueError(f"expected {count} varints, decoded only {n_complete}")
        n_values = count
        check_whole_buffer = validate_tail
    if check_whole_buffer:
        if buf.size and buf[-1] & 0x80:
            raise ValueError("truncated varint stream")
        checked_ends = terminators
    else:
        checked_ends = terminators[:n_values]
    # Per-varint byte lengths over everything being validated.
    if checked_ends.size:
        checked_lengths = np.diff(checked_ends, prepend=np.int64(-1))
        if int(checked_lengths.max()) > MAX_VARINT_BYTES:
            raise ValueError(
                f"varint longer than {MAX_VARINT_BYTES} bytes overflows int64"
            )
    if n_values == 0:
        return np.zeros(0, dtype=np.int64), 0
    ends = terminators[:n_values]
    consumed = int(ends[n_values - 1]) + 1
    # Start byte of each decoded varint.
    starts = np.zeros(n_values, dtype=np.int64)
    starts[1:] = ends[: n_values - 1] + 1
    lengths = ends - starts + 1
    # Assemble values one 7-bit group position at a time: at most
    # MAX_VARINT_BYTES vectorized passes, each over only the varints that
    # still have a byte at that position (the active set shrinks fast — most
    # code-stream varints are one or two bytes).  Gathers stay in uint8 and
    # widen only the shrinking active set.
    payload = buf[:consumed] & 0x7F
    values = payload[starts].astype(np.int64)
    active = np.flatnonzero(lengths > 1)
    for group in range(1, MAX_VARINT_BYTES):
        if active.size == 0:
            break
        values[active] |= payload[starts[active] + group].astype(np.int64) << (7 * group)
        active = active[lengths[active] > group + 1]
    return values, consumed


def toc_row_slice(
    codes: np.ndarray,
    row_offsets: np.ndarray,
    key_columns: np.ndarray,
    key_values: np.ndarray,
    parents: np.ndarray,
    index: np.ndarray,
    n_cols: int,
) -> np.ndarray:
    """Decode only the selected rows' code runs through the decode tree.

    Gathers the selected rows' codes with one CSR-style range concatenation,
    then walks *all* gathered codes up the tree in lockstep (one vectorized
    step per tree level), scattering each level's key pairs straight into
    the dense output.  Work is proportional to the selected rows' codes and
    their sequence lengths — never to ``n_rows`` or the full code stream.
    """
    index = np.asarray(index, dtype=np.intp).ravel()
    out = np.zeros((index.size, int(n_cols)), dtype=np.float64)
    if index.size == 0 or codes.size == 0:
        return out
    starts = row_offsets[index]
    counts = row_offsets[index + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return out
    out_rows = np.repeat(np.arange(index.size, dtype=np.int64), counts)
    range_offsets = np.zeros(index.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=range_offsets[1:])
    positions = np.arange(total, dtype=np.int64) - range_offsets[out_rows] + starts[out_rows]
    current = codes[positions].copy()
    # Lockstep tree walk: every gathered code emits its node's key pair and
    # steps to its parent; a code retires when it reaches the root.  Within
    # one row the pairs of different codes touch distinct columns, so the
    # scatter below never collides.
    active = current != 0
    rows_active = out_rows
    while active.any():
        if not active.all():
            current = current[active]
            rows_active = rows_active[active]
        out[rows_active, key_columns[current]] = key_values[current]
        current = parents[current]
        active = current != 0
    return out


def vi_gather(dictionary: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Batched value-index decode: one fancy-indexing pass."""
    return dictionary[codes]
