"""The user-facing TOC compressed matrix.

:class:`TOCMatrix` ties the three encoding layers together and is the TOC
scheme's :class:`~repro.compression.base.CompressedMatrix`: the seven kernels,
the scan push-down (:meth:`TOCMatrix.columns`) and the paper's own
operations (``power``, ``add_scalar``) are its methods, so ML code can treat
a TOC mini-batch almost like a NumPy array:

>>> import numpy as np
>>> from repro.core import TOCMatrix
>>> batch = np.array([[1.1, 2, 3, 1.4], [1.1, 2, 3, 0], [0, 1.1, 3, 1.4], [1.1, 2, 0, 0]])
>>> toc = TOCMatrix.encode(batch)
>>> np.allclose(toc.matvec(np.ones(4)), batch @ np.ones(4))
True

Read back with :meth:`TOCMatrix.decompress_bytes`, a matrix holds views of
its payload for ``I`` and ``D`` and, from its first operation on, one decode
tree ``C'`` (:class:`~repro.core.decode_tree.DecodeTree`): every product,
column extraction, row slice and full decode runs on it.

The registry's ``TOC_SPARSE`` and ``TOC_SPARSE_AND_LOGICAL`` ablations
(Figure 6) store the layouts their names describe, so their sizes and read
costs are measured on stored bytes: :class:`TOCSparseMatrix` is the sparse
encoding alone, which is CSR's layout, and :class:`TOCSparseAndLogicalMatrix`
stores ``I`` and ``D`` without the physical layer
(:func:`~repro.core.physical.unpacked_encode`) and runs TOC's kernels on them.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedMatrix
from repro.compression.csr import CSRMatrix
from repro.core import ops
from repro.core.decode_tree import DecodeTree, build_decode_tree
from repro.core.logical import LogicalEncoding, prefix_tree_encode
from repro.core.physical import (
    physical_decode,
    physical_encode,
    unpacked_decode,
    unpacked_encode,
)
from repro.core.sparse import SparseEncodedTable, sparse_encode


class TOCMatrix(CompressedMatrix):
    """A mini-batch compressed with tuple-oriented compression.

    Instances are created with :meth:`encode` (from a dense matrix) or
    :meth:`decompress_bytes` (from a serialised physical encoding).  The
    payload is written at encode time and kept.  Read from bytes,
    ``logical`` holds views of them, no copies; every operation but the
    sparse-safe ones runs on :attr:`decode_tree`, built once on first use.
    """

    scheme_name = "TOC"
    supports_direct_ops = True
    scan_pushdown = True

    #: The payload layout: how ``I`` and ``D`` are written and read back.
    _write = staticmethod(physical_encode)
    _read = staticmethod(physical_decode)

    def __init__(self, logical: LogicalEncoding, payload: bytes | memoryview | None = None):
        super().__init__(logical.shape)
        self.logical = logical
        self.payload = payload
        self._decode_tree: DecodeTree | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def encode(cls, matrix: np.ndarray) -> "TOCMatrix":
        """Compress a dense matrix with TOC and write its payload."""
        logical = prefix_tree_encode(sparse_encode(np.asarray(matrix, dtype=np.float64)))
        return cls(logical, cls._write(logical))

    @classmethod
    def compress(cls, matrix: np.ndarray) -> "TOCMatrix":
        """Compress a dense matrix with TOC (:meth:`encode`)."""
        return cls.encode(matrix)

    @classmethod
    def decompress_bytes(cls, raw) -> "TOCMatrix":
        """Deserialise a TOC matrix from its payload (any buffer object).

        Parsing copies nothing (:func:`~repro.core.physical.physical_decode`);
        the first operation builds the decode tree straight from the views.
        """
        return cls(cls._read(raw), payload=raw)

    # -- serialisation ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The payload: the physical encoding of ``I`` and ``D``."""
        if self.payload is None:
            self.payload = self._write(self.logical)
        return bytes(self.payload)

    @property
    def decode_tree(self) -> DecodeTree:
        """The decoding tree ``C'`` every kernel runs on, built lazily and cached."""
        if self._decode_tree is None:
            self._decode_tree = build_decode_tree(self.logical)
        return self._decode_tree

    # -- compressed execution ----------------------------------------------

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """``A @ v`` without decompression (Algorithm 4)."""
        return ops.matrix_times_vector(self.decode_tree, vector)

    def rmatvec(self, vector: np.ndarray) -> np.ndarray:
        """``v @ A`` without decompression (Algorithm 5)."""
        return ops.vector_times_matrix(self.decode_tree, vector)

    def matmat(self, matrix: np.ndarray) -> np.ndarray:
        """``A @ M`` without decompression (Algorithm 7)."""
        return ops.matrix_times_matrix(self.decode_tree, matrix)

    def rmatmat(self, matrix: np.ndarray) -> np.ndarray:
        """``M @ A`` without decompression (Algorithm 8)."""
        return ops.uncompressed_matrix_times_matrix(self.decode_tree, matrix)

    def columns(self, cols) -> np.ndarray:
        """Columns ``cols`` as a dense ``(rows, k)`` block, in one pass over ``C'``.

        Never multiplies another column's value, so a NaN or ±inf elsewhere
        in a row stays out (:func:`repro.core.ops.matrix_columns`).
        """
        return ops.matrix_columns(self.decode_tree, cols)

    def column(self, col: int) -> np.ndarray:
        """Column ``col`` as a dense vector."""
        return self.columns([col])[:, 0]

    def scale(self, scalar: float) -> "TOCMatrix":
        """``A .* c`` — returns a new TOC matrix sharing the code arrays."""
        return type(self)(ops.matrix_times_scalar(self.logical, scalar))

    def power(self, exponent: float) -> "TOCMatrix":
        """``A .^ p`` for positive ``p`` (sparse-safe)."""
        return type(self)(ops.matrix_elementwise_power(self.logical, exponent))

    def add_scalar(self, scalar: float) -> np.ndarray:
        """``A .+ c`` — sparse-unsafe, returns a dense matrix (Algorithm 6)."""
        return ops.matrix_plus_scalar(self.decode_tree, scalar)

    # -- decoding ------------------------------------------------------------

    def to_sparse(self) -> SparseEncodedTable:
        """Decode back to the sparse-encoded table."""
        return ops.decode_to_sparse(self.decode_tree)

    def to_dense(self) -> np.ndarray:
        """Fully decode back to a dense NumPy matrix (the row-slice walk over every row)."""
        return ops.decode_to_dense(self.decode_tree)

    def _row_slice_rows(self, index: np.ndarray) -> np.ndarray:
        # Decodes only the selected rows' code runs through the decode tree
        # (O(selected codes)): no selection matrix, no full decode.
        return ops.decode_rows_to_dense(self.decode_tree, index)

    # -- statistics -----------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Summary statistics useful for diagnostics and the benches."""
        return {
            "rows": float(self.n_rows),
            "cols": float(self.n_cols),
            "nnz": float(self.to_sparse().nnz),
            "first_layer": float(self.logical.n_first_layer),
            "codes": float(self.logical.n_codes),
            "tree_nodes": float(self.logical.n_tree_nodes),
            "compressed_bytes": float(self.nbytes),
            "compression_ratio": self.compression_ratio(),
        }


class TOCSparseMatrix(CSRMatrix):
    """The ``TOC_SPARSE`` ablation: sparse encoding only, stored as CSR (Figure 6)."""

    scheme_name = "TOC_SPARSE"


class TOCSparseAndLogicalMatrix(TOCMatrix):
    """The ``TOC_SPARSE_AND_LOGICAL`` ablation: no physical encoding (Figure 6)."""

    scheme_name = "TOC_SPARSE_AND_LOGICAL"
    _write = staticmethod(unpacked_encode)
    _read = staticmethod(unpacked_decode)
