"""The hot code-walk kernels: varint encode/decode, TOC ``row_slice``, value-index gather.

Every caller runs the vectorized NumPy implementations in
:mod:`repro.kernels.numpy_backend`.  :mod:`repro.kernels.python_backend`
keeps the per-element reference loops with the same semantics; only the
property tests and ``benchmarks/bench_kernels.py`` call them.
"""

from __future__ import annotations

from repro.kernels.numpy_backend import (
    MAX_VARINT_BYTES,
    toc_row_slice,
    varint_decode,
    varint_encode,
    vi_gather,
)


def active_backend() -> str:
    """The kernel implementation every call runs, for run provenance."""
    return "numpy"


__all__ = [
    "MAX_VARINT_BYTES",
    "active_backend",
    "toc_row_slice",
    "varint_decode",
    "varint_encode",
    "vi_gather",
]
