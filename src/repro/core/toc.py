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

The :class:`TOCVariant` enum selects how many layers are applied; it exists
to support the paper's ablation studies.  The registry's ``TOC_SPARSE`` and
``TOC_SPARSE_AND_LOGICAL`` are :class:`TOCSparseMatrix` and
:class:`TOCSparseAndLogicalMatrix`, which only set ``scheme_name`` and
``variant``: they compress to a :class:`TOCMatrix` of their variant and
parse to a full one.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.compression.base import CompressedMatrix
from repro.core import ops
from repro.core.decode_tree import DecodeTree, build_decode_tree
from repro.core.logical import LogicalEncoding, prefix_tree_encode
from repro.core.physical import logical_nbytes, physical_decode, physical_encode
from repro.core.sparse import SparseEncodedTable, sparse_encode


class TOCVariant(enum.Enum):
    """Which TOC layers are applied — used for the paper's ablations."""

    SPARSE = "sparse"
    SPARSE_AND_LOGICAL = "sparse_and_logical"
    FULL = "full"


class TOCMatrix(CompressedMatrix):
    """A mini-batch compressed with tuple-oriented compression.

    Instances are created with :meth:`encode` (from a dense matrix) or
    :meth:`decompress_bytes` (from a serialised physical encoding).  The physical
    bytes are kept when ``variant`` is :attr:`TOCVariant.FULL` and are what
    the compression ratio measures.  Read from bytes, ``logical`` holds
    views of them, no copies; every operation but the sparse-safe ones
    runs on :attr:`decode_tree`, built once on first use.
    """

    scheme_name = "TOC"
    #: The layers :meth:`compress` applies (an instance records its own).
    variant = TOCVariant.FULL
    supports_direct_ops = True
    scan_pushdown = True

    def __init__(
        self,
        logical: LogicalEncoding,
        variant: TOCVariant = TOCVariant.FULL,
        payload: bytes | memoryview | None = None,
        sparse_nbytes: int | None = None,
    ):
        super().__init__(logical.shape)
        self.logical = logical
        self.variant = variant
        self.payload = payload
        self._sparse_nbytes = sparse_nbytes
        self._decode_tree: DecodeTree | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def encode(
        cls, matrix: np.ndarray, variant: TOCVariant = TOCVariant.FULL
    ) -> "TOCMatrix":
        """Compress a dense matrix with TOC."""
        sparse = sparse_encode(np.asarray(matrix, dtype=np.float64))
        return cls.from_sparse(sparse, variant=variant)

    @classmethod
    def from_sparse(
        cls, sparse: SparseEncodedTable, variant: TOCVariant = TOCVariant.FULL
    ) -> "TOCMatrix":
        """Compress an already sparse-encoded table with TOC."""
        logical = prefix_tree_encode(sparse)
        payload = physical_encode(logical) if variant is TOCVariant.FULL else None
        return cls(logical, variant, payload, sparse_nbytes=sparse.nbytes)

    @classmethod
    def compress(cls, matrix: np.ndarray) -> "TOCMatrix":
        """Compress a dense matrix with this scheme's :attr:`variant`."""
        return TOCMatrix.encode(matrix, variant=cls.variant)

    @classmethod
    def decompress_bytes(cls, raw) -> "TOCMatrix":
        """Deserialise a full TOC matrix from its physical bytes (any buffer object).

        Parsing copies nothing (:func:`~repro.core.physical.physical_decode`);
        the first operation builds the decode tree straight from the views.
        """
        return TOCMatrix(physical_decode(raw), TOCVariant.FULL, payload=raw)

    # -- size and serialisation -------------------------------------------

    @property
    def nbytes(self) -> int:
        """Compressed size in bytes according to the selected variant."""
        if self.variant is TOCVariant.FULL:
            if self.payload is None:
                self.payload = physical_encode(self.logical)
            return len(self.payload)
        if self.variant is TOCVariant.SPARSE_AND_LOGICAL:
            return logical_nbytes(self.logical)
        # SPARSE variant: cost of the plain sparse encoding (col idx + value
        # per non-zero plus row offsets), computed at encode time.
        if self._sparse_nbytes is None:
            self._sparse_nbytes = self.to_sparse().nbytes
        return self._sparse_nbytes

    @property
    def decode_tree(self) -> DecodeTree:
        """The decoding tree ``C'`` every kernel runs on, built lazily and cached."""
        if self._decode_tree is None:
            self._decode_tree = build_decode_tree(self.logical)
        return self._decode_tree

    def to_bytes(self) -> bytes:
        """Serialise the physical encoding (always available on demand).

        The bytes are the full physical encoding whatever the variant, and
        :meth:`decompress_bytes` reads them back as a ``FULL`` matrix: a
        stored ``TOC_SPARSE`` or ``TOC_SPARSE_AND_LOGICAL`` batch is the
        same bytes as a ``TOC`` one.  Only :attr:`nbytes` tells the
        variants apart.
        """
        if self.payload is None:
            self.payload = physical_encode(self.logical)
        return bytes(self.payload)

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
        scaled = ops.matrix_times_scalar(self.logical, scalar)
        return TOCMatrix(scaled, self.variant)

    def power(self, exponent: float) -> "TOCMatrix":
        """``A .^ p`` for positive ``p`` (sparse-safe)."""
        powered = ops.matrix_elementwise_power(self.logical, exponent)
        return TOCMatrix(powered, self.variant)

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


class TOCSparseMatrix(TOCMatrix):
    """The ``TOC_SPARSE`` ablation: sparse encoding only (Figure 6)."""

    scheme_name = "TOC_SPARSE"
    variant = TOCVariant.SPARSE


class TOCSparseAndLogicalMatrix(TOCMatrix):
    """The ``TOC_SPARSE_AND_LOGICAL`` ablation: no physical encoding (Figure 6)."""

    scheme_name = "TOC_SPARSE_AND_LOGICAL"
    variant = TOCVariant.SPARSE_AND_LOGICAL
