"""Common interface for compressed mini-batch matrices.

The MGD trainer, the scan executor and the benchmark harness only talk to
this interface.  A scheme *is* its matrix class: the class compresses a
dense batch (:meth:`CompressedMatrix.compress`), parses its own payload
(:meth:`CompressedMatrix.decompress_bytes`), and is the one place that knows
the layout: its kernels and, where it has one, its scan push-down live on
it.  :func:`repro.compression.registry.get_scheme` maps each paper name to
its class.

The interface mirrors how the paper's Section 4 classifies operations:

* ``matvec`` / ``matmat`` — right multiplication (``A @ v``, ``A @ M``),
* ``rmatvec`` / ``rmatmat`` — left multiplication (``v @ A``, ``M @ A``),
* ``scale`` — sparse-safe element-wise scaling,
* ``to_dense`` — full decoding (what the sparse-unsafe ops need).

The four products are also NumPy's own ``@``: ``A @ x`` runs ``matvec``
for a 1-D ``x`` and ``matmat`` for a 2-D one, and ``x @ A`` runs
``rmatvec`` / ``rmatmat``.  The class sets ``__array_ufunc__ = None``
(NEP 13), so ``ndarray @ A`` hands the product to ``A`` instead of
building an object array.  A model written ``batch @ w`` and
``g @ batch`` therefore runs unchanged on an ndarray, a SciPy sparse
matrix or any scheme; there is no dispatch table.

Scans (:mod:`repro.exec.scan`) push predicates down into the schemes that
read columns on their compressed form.  Such a scheme sets
``scan_pushdown`` and implements ``columns(cols)`` — a dense
``(rows, len(cols))`` block, implicit zeros included — and the scan takes
every column it touches from one ``columns`` call and gathers matched rows
with ``row_slice``.  A value-indexed scheme (DVI, CVI) also sets
``dictionary_probe`` and implements ``compare(col, test, value)`` (``test``
a NumPy comparison ufunc) and ``column_stats(col, mask)`` (``(count, sum,
min, max)`` over the kept rows, ``None`` when none is kept) straight off its
dictionary of distinct values, so a column only the predicate or only an
aggregate touches is never extracted.

Schemes that cannot operate directly on compressed data (the general-purpose
byte compressors) implement the operations by decompressing first, which is
exactly the behaviour whose cost the paper's experiments expose.
"""

from __future__ import annotations

import abc

import numpy as np


class CompressedMatrix(abc.ABC):
    """A compressed representation of one dense mini-batch matrix."""

    #: The scheme's paper name (e.g. ``"TOC"``, ``"CSR"``): its key in the
    #: registry and its label in benchmark tables.
    scheme_name: str = "?"

    #: Whether matrix operations run directly on the compressed form
    #: (False means every operation pays a full decompression first).
    supports_direct_ops: bool = True

    #: Whether a scan reads this scheme on the compressed form, through
    #: ``columns`` and ``row_slice`` (False: it decodes the shard once).
    scan_pushdown: bool = False

    #: Whether ``compare`` and ``column_stats`` answer a column from the
    #: value dictionary, without extracting it.
    dictionary_probe: bool = False

    #: NEP 13: NumPy operators defer to this class, so ``ndarray @ matrix``
    #: calls :meth:`__rmatmul__` rather than building an object array.
    __array_ufunc__ = None

    def __init__(self, shape: tuple[int, int]):
        self._shape = (int(shape[0]), int(shape[1]))

    # -- the scheme: compress a batch, parse a payload -------------------------

    @classmethod
    def compress(cls, matrix) -> "CompressedMatrix":
        """Compress one dense mini-batch with this scheme."""
        return cls(matrix)

    @classmethod
    @abc.abstractmethod
    def decompress_bytes(cls, raw) -> "CompressedMatrix":
        """Rebuild a compressed batch from :meth:`to_bytes` output (any buffer)."""

    # -- shape & size --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def n_rows(self) -> int:
        return self._shape[0]

    @property
    def n_cols(self) -> int:
        return self._shape[1]

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Compressed size in bytes (the numerator of compression ratios)."""

    def compression_ratio(self) -> float:
        """Dense (DEN) size divided by this scheme's compressed size."""
        dense_bytes = self.n_rows * self.n_cols * 8
        return dense_bytes / max(self.nbytes, 1)

    # -- matrix operations ---------------------------------------------------

    @abc.abstractmethod
    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """Return ``A @ v``."""

    @abc.abstractmethod
    def rmatvec(self, vector: np.ndarray) -> np.ndarray:
        """Return ``v @ A``."""

    def matmat(self, matrix: np.ndarray) -> np.ndarray:
        """Return ``A @ M`` (default: column-by-column matvec)."""
        m = np.asarray(matrix, dtype=np.float64)
        out = np.empty((self.n_rows, m.shape[1]))
        for j in range(m.shape[1]):
            out[:, j] = self.matvec(m[:, j])
        return out

    def rmatmat(self, matrix: np.ndarray) -> np.ndarray:
        """Return ``M @ A`` (default: row-by-row rmatvec)."""
        m = np.asarray(matrix, dtype=np.float64)
        out = np.empty((m.shape[0], self.n_cols))
        for i in range(m.shape[0]):
            out[i] = self.rmatvec(m[i, :])
        return out

    def __matmul__(self, other):
        """``A @ v`` or ``A @ M``, by the operand's dimension."""
        ndim = np.ndim(other)
        if ndim == 1:
            return self.matvec(other)
        return self.matmat(other) if ndim == 2 else NotImplemented

    def __rmatmul__(self, other):
        """``v @ A`` or ``M @ A``, by the operand's dimension."""
        ndim = np.ndim(other)
        if ndim == 1:
            return self.rmatvec(other)
        return self.rmatmat(other) if ndim == 2 else NotImplemented

    @abc.abstractmethod
    def scale(self, scalar: float) -> "CompressedMatrix":
        """Return a compressed representation of ``A * c``."""

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Fully decode to a dense matrix."""

    def row_slice(self, rows) -> np.ndarray:
        """Dense copy of the selected rows, in request order.

        Validates the indices once, then delegates to :meth:`_row_slice_rows`
        so schemes only override the kernel, not the bounds checking.
        """
        index = np.asarray(rows, dtype=np.intp).ravel()
        if index.size and (index.min() < 0 or index.max() >= self.n_rows):
            raise IndexError(f"row index out of range [0, {self.n_rows})")
        if index.size == 0:
            return np.empty((0, self.n_cols), dtype=np.float64)
        return self._row_slice_rows(index)

    def _row_slice_rows(self, index: np.ndarray) -> np.ndarray:
        """Row-slice kernel for validated, non-empty indices.

        Default: direct-op schemes decode the rows with a selection ``M @ A``
        (one left multiplication on the compressed form, never the whole
        block); byte-block schemes fall back to a full decode.  Schemes with
        a natural row layout (DEN, CSR) override with a cheaper path.
        """
        if self.supports_direct_ops:
            selection = np.zeros((index.size, self.n_rows), dtype=np.float64)
            selection[np.arange(index.size), index] = 1.0
            return self.rmatmat(selection)
        return self.to_dense()[index].copy()

    # -- serialisation --------------------------------------------------------

    @abc.abstractmethod
    def to_bytes(self) -> bytes:
        """Serialise the compressed batch (what the storage layer writes)."""

    # -- helpers --------------------------------------------------------------

    def _check_matvec_input(self, vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float64).ravel()
        if v.size != self.n_cols:
            raise ValueError(f"vector has length {v.size}, expected {self.n_cols}")
        return v

    def _check_rmatvec_input(self, vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float64).ravel()
        if v.size != self.n_rows:
            raise ValueError(f"vector has length {v.size}, expected {self.n_rows}")
        return v

