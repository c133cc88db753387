"""Kernel dispatch over every supported matrix representation.

The seven kernels mirror how the paper's Section 4 classifies operations
(right/left multiplication, sparse-safe scaling, full decode) plus the
serving-side ``row_slice`` (decode a handful of rows without materialising
the block).  A :class:`KernelSet` binds one implementation of each kernel to
a *representation*; the module-level functions resolve the right set for the
argument and run it.

Resolution order:

1. :class:`~repro.compression.base.CompressedMatrix` — every registered
   compression scheme; kernels are the scheme's own compressed operations
   (TOC's Algorithms 4/5/7/8, CSR's SciPy kernels, ...), so this one entry
   covers all schemes including any mix of them inside one dataset;
2. SciPy sparse matrices;
3. plain NumPy arrays (anything ``np.asarray`` accepts);
4. duck-typed objects exposing the kernel methods (test doubles, wrappers).

A new compression scheme needs no entry here: it is a ``CompressedMatrix``.
Callers elsewhere in the codebase must go through these functions instead
of probing batches with ``isinstance``/``hasattr`` themselves.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.compression.base import CompressedMatrix

#: Kernel names a duck-typed representation may expose.
KERNEL_NAMES = ("matvec", "rmatvec", "matmat", "rmatmat", "scale", "to_dense", "row_slice")


@dataclass(frozen=True)
class KernelSet:
    """One implementation of each kernel for a single representation."""

    name: str
    matvec: Callable[[object, np.ndarray], np.ndarray]
    rmatvec: Callable[[object, np.ndarray], np.ndarray]
    matmat: Callable[[object, np.ndarray], np.ndarray]
    rmatmat: Callable[[object, np.ndarray], np.ndarray]
    scale: Callable[[object, float], object]
    to_dense: Callable[[object], np.ndarray]
    row_slice: Callable[[object, Sequence[int]], np.ndarray]
    #: Whether operations run on the compressed form (False: every op pays a
    #: full decode first — what the advisor's score discounts).
    direct_ops: Callable[[object], bool] = lambda matrix: True


# -- per-representation kernels ------------------------------------------------


def _as_dense(matrix) -> np.ndarray:
    return np.asarray(matrix, dtype=np.float64)


_COMPRESSED_KERNELS = KernelSet(
    name="compressed",
    matvec=lambda m, v: m.matvec(v),
    rmatvec=lambda m, v: m.rmatvec(v),
    matmat=lambda m, o: m.matmat(o),
    rmatmat=lambda m, o: m.rmatmat(o),
    scale=lambda m, c: m.scale(c),
    to_dense=lambda m: m.to_dense(),
    row_slice=lambda m, rows: m.row_slice(rows),
    direct_ops=lambda m: bool(m.supports_direct_ops),
)

_SPARSE_KERNELS = KernelSet(
    name="scipy-sparse",
    matvec=lambda m, v: m @ _as_dense(v),
    rmatvec=lambda m, v: _as_dense(v) @ m,
    matmat=lambda m, o: m @ _as_dense(o),
    rmatmat=lambda m, o: _as_dense(o) @ m,
    scale=lambda m, c: m * float(c),
    to_dense=lambda m: np.asarray(m.todense(), dtype=np.float64),
    row_slice=lambda m, rows: np.asarray(
        m.tocsr()[np.asarray(rows, dtype=np.intp)].todense(), dtype=np.float64
    ),
)

_NDARRAY_KERNELS = KernelSet(
    name="ndarray",
    matvec=lambda m, v: _as_dense(m) @ _as_dense(v),
    rmatvec=lambda m, v: _as_dense(v) @ _as_dense(m),
    matmat=lambda m, o: _as_dense(m) @ _as_dense(o),
    rmatmat=lambda m, o: _as_dense(o) @ _as_dense(m),
    scale=lambda m, c: _as_dense(m) * float(c),
    to_dense=_as_dense,
    row_slice=lambda m, rows: _as_dense(m)[np.asarray(rows, dtype=np.intp)].copy(),
)


def _duck_call(matrix, kernel: str, *args):
    method = getattr(matrix, kernel, None)
    if method is None:
        raise TypeError(
            f"{type(matrix).__name__} exposes no {kernel!r} kernel; "
            f"duck-typed batches must implement the kernels they are used with"
        )
    return method(*args)


_DUCK_KERNELS = KernelSet(
    name="duck",
    matvec=lambda m, v: _duck_call(m, "matvec", v),
    rmatvec=lambda m, v: _duck_call(m, "rmatvec", v),
    matmat=lambda m, o: _duck_call(m, "matmat", o),
    rmatmat=lambda m, o: _duck_call(m, "rmatmat", o),
    scale=lambda m, c: _duck_call(m, "scale", c),
    to_dense=lambda m: _duck_call(m, "to_dense"),
    row_slice=lambda m, rows: _duck_call(m, "row_slice", rows),
    direct_ops=lambda m: bool(getattr(m, "supports_direct_ops", True)),
)


def _is_duck(matrix) -> bool:
    return any(callable(getattr(matrix, kernel, None)) for kernel in KERNEL_NAMES)


def _is_ndarray_like(matrix) -> bool:
    if isinstance(matrix, np.ndarray):
        return True
    # Sequences of numbers (lists of lists) and anything implementing the
    # NumPy array protocols dispatch as arrays — but kernel-bearing objects
    # keep their own kernels even if they happen to be array-convertible.
    if isinstance(matrix, (list, tuple)) or np.isscalar(matrix):
        return True
    has_array_protocol = hasattr(matrix, "__array__") or hasattr(matrix, "__array_interface__")
    return has_array_protocol and not _is_duck(matrix)


# -- the dispatch table --------------------------------------------------------

#: Ordered (predicate, kernels) pairs; first match wins.
_DISPATCH: tuple[tuple[Callable[[object], bool], KernelSet], ...] = (
    (lambda m: isinstance(m, CompressedMatrix), _COMPRESSED_KERNELS),
    (sp.issparse, _SPARSE_KERNELS),
    (_is_ndarray_like, _NDARRAY_KERNELS),
    (_is_duck, _DUCK_KERNELS),
)


def kernels_for(matrix) -> KernelSet:
    """Resolve the kernel set for ``matrix``; raises ``TypeError`` if none fits."""
    for predicate, kernels in _DISPATCH:
        if predicate(matrix):
            return kernels
    raise TypeError(
        f"no kernels registered for {type(matrix).__name__}; supported: "
        f"CompressedMatrix schemes, scipy sparse, ndarray, or objects "
        f"implementing {KERNEL_NAMES}"
    )


# -- public kernel entry points ------------------------------------------------


def matvec(matrix, vector: np.ndarray) -> np.ndarray:
    """``A @ v`` for any supported representation."""
    return kernels_for(matrix).matvec(matrix, vector)


def rmatvec(matrix, vector: np.ndarray) -> np.ndarray:
    """``v @ A`` for any supported representation."""
    return kernels_for(matrix).rmatvec(matrix, vector)


def matmat(matrix, other: np.ndarray) -> np.ndarray:
    """``A @ M`` for any supported representation."""
    return kernels_for(matrix).matmat(matrix, other)


def rmatmat(matrix, other: np.ndarray) -> np.ndarray:
    """``M @ A`` for any supported representation."""
    return kernels_for(matrix).rmatmat(matrix, other)


def scale(matrix, scalar: float):
    """``A * c`` (sparse-safe) in the same representation."""
    return kernels_for(matrix).scale(matrix, scalar)


def to_dense(matrix) -> np.ndarray:
    """Fully materialise any supported representation."""
    return kernels_for(matrix).to_dense(matrix)


def row_slice(matrix, rows: Sequence[int]) -> np.ndarray:
    """Dense copy of the selected rows, in request order (duplicates allowed).

    Schemes provide their own fast path (array slice for DEN, SciPy row
    indexing for CSR, a direct decode of the selected rows' code runs for
    TOC/CVI/DVI via the :mod:`repro.kernels` backends), so a point lookup
    never has to materialise the whole block.
    """
    return kernels_for(matrix).row_slice(matrix, rows)


def supports_direct_ops(matrix) -> bool:
    """Whether kernels run on the compressed form without a full decode."""
    return kernels_for(matrix).direct_ops(matrix)
