"""Variable-length integer (varint) codec.

The paper mentions Varint as a more advanced alternative to fixed-width bit
packing ("future work", Section 3.2).  We provide it as an optional physical
codec so the ablation benches can compare the two.

The byte-level work is done by the vectorized NumPy kernels in
:mod:`repro.kernels`; this module keeps the stable public codec API.
"""

from __future__ import annotations

import numpy as np

from repro import kernels

#: Longest accepted varint: 9 payload bytes cover non-negative int64.
MAX_VARINT_BYTES = kernels.MAX_VARINT_BYTES


def encode_varints(values: np.ndarray | list[int]) -> bytes:
    """Encode non-negative integers as LEB128-style varints."""
    return kernels.varint_encode(np.asarray(values, dtype=np.int64))


def decode_varints(raw, count: int | None = None) -> np.ndarray:
    """Decode varints from ``raw`` (bytes or any buffer object).

    Parameters
    ----------
    raw:
        Byte string (or buffer) produced by :func:`encode_varints`.
    count:
        If given, return only the first ``count`` integers; otherwise decode
        the whole buffer.

    The whole buffer must consist of complete varints even when ``count``
    stops short of them: a stream that ends mid-value raises ``ValueError``
    regardless of ``count``, because a truncated tail means the writer was
    interrupted and the payload cannot be trusted.
    """
    values, _ = kernels.varint_decode(raw, count, True)
    return values


__all__ = ["MAX_VARINT_BYTES", "decode_varints", "encode_varints"]
