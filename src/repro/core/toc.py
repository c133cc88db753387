"""The user-facing TOC compressed matrix.

:class:`TOCMatrix` ties the three encoding layers together and exposes the
compressed matrix operations as methods so that ML code can treat a TOC
mini-batch almost like a NumPy array:

>>> import numpy as np
>>> from repro.core import TOCMatrix
>>> batch = np.array([[1.1, 2, 3, 1.4], [1.1, 2, 3, 0], [0, 1.1, 3, 1.4], [1.1, 2, 0, 0]])
>>> toc = TOCMatrix.encode(batch)
>>> np.allclose(toc.matvec(np.ones(4)), batch @ np.ones(4))
True

The :class:`TOCVariant` enum selects how many layers are applied; it exists
to support the paper's ablation studies (``TOC_SPARSE``,
``TOC_SPARSE_AND_LOGICAL``, ``TOC_FULL``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core import ops
from repro.core.decode_tree import DecodeTree, build_decode_tree
from repro.core.logical import LogicalEncoding, prefix_tree_encode
from repro.core.physical import (
    PhysicalEncoding,
    logical_nbytes,
    physical_decode,
    physical_encode,
)
from repro.core.sparse import SparseEncodedTable, sparse_encode


class TOCVariant(enum.Enum):
    """Which TOC layers are applied — used for the paper's ablations."""

    SPARSE = "sparse"
    SPARSE_AND_LOGICAL = "sparse_and_logical"
    FULL = "full"


@dataclass
class TOCMatrix:
    """A mini-batch compressed with tuple-oriented compression.

    Instances are created with :meth:`encode` (from a dense matrix) or
    :meth:`from_bytes` (from a serialised physical encoding).  The logical
    encoding is always materialised in memory; the physical bytes are kept
    when ``variant`` is :attr:`TOCVariant.FULL` and are what the compression
    ratio measures.
    """

    logical: LogicalEncoding
    variant: TOCVariant = TOCVariant.FULL
    physical: PhysicalEncoding | None = None
    _decode_tree: DecodeTree | None = field(default=None, repr=False)
    _sparse_nbytes: int | None = field(default=None, repr=False)

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
        logical, _ = prefix_tree_encode(sparse)
        physical = physical_encode(logical) if variant is TOCVariant.FULL else None
        return cls(
            logical=logical,
            variant=variant,
            physical=physical,
            _sparse_nbytes=sparse.nbytes,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TOCMatrix":
        """Deserialise a TOC matrix from its physical byte representation."""
        physical = PhysicalEncoding.from_bytes(raw)
        return cls(logical=physical_decode(physical), variant=TOCVariant.FULL, physical=physical)

    @classmethod
    def encode_to_bytes(cls, matrix: np.ndarray) -> bytes:
        """Convenience: compress and serialise in one step.

        The result round-trips exactly through :meth:`from_bytes`, so the
        bytes can be persisted and decoded in a different process than the
        one that encoded them.  (The out-of-core engine goes through the
        scheme-generic ``compress(...).to_bytes()`` path instead, so it
        works for every registered scheme.)
        """
        return cls.encode(matrix, variant=TOCVariant.FULL).to_bytes()

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.logical.shape

    @property
    def n_rows(self) -> int:
        return self.logical.n_rows

    @property
    def n_cols(self) -> int:
        return self.logical.n_cols

    @property
    def nbytes(self) -> int:
        """Compressed size in bytes according to the selected variant."""
        if self.variant is TOCVariant.FULL:
            if self.physical is None:
                self.physical = physical_encode(self.logical)
            return self.physical.nbytes
        if self.variant is TOCVariant.SPARSE_AND_LOGICAL:
            return logical_nbytes(self.logical)
        # SPARSE variant: cost of the plain sparse encoding (col idx + value
        # per non-zero plus row offsets), computed at encode time.
        if self._sparse_nbytes is None:
            self._sparse_nbytes = ops.decode_to_sparse(self.logical).nbytes
        return self._sparse_nbytes

    @property
    def decode_tree(self) -> DecodeTree:
        """The decoding tree ``C'``, built lazily and cached."""
        if self._decode_tree is None:
            self._decode_tree = build_decode_tree(self.logical)
        return self._decode_tree

    def to_bytes(self) -> bytes:
        """Serialise the physical encoding (always available on demand)."""
        if self.physical is None:
            self.physical = physical_encode(self.logical)
        return self.physical.to_bytes()

    # -- compressed execution ----------------------------------------------

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """``A @ v`` without decompression (Algorithm 4)."""
        return ops.matrix_times_vector(self.logical, vector, self.decode_tree)

    def rmatvec(self, vector: np.ndarray) -> np.ndarray:
        """``v @ A`` without decompression (Algorithm 5)."""
        return ops.vector_times_matrix(self.logical, vector, self.decode_tree)

    def matmat(self, matrix: np.ndarray) -> np.ndarray:
        """``A @ M`` without decompression (Algorithm 7)."""
        return ops.matrix_times_matrix(self.logical, matrix, self.decode_tree)

    def rmatmat(self, matrix: np.ndarray) -> np.ndarray:
        """``M @ A`` without decompression (Algorithm 8)."""
        return ops.uncompressed_matrix_times_matrix(self.logical, matrix, self.decode_tree)

    def columns(self, cols) -> np.ndarray:
        """Columns ``cols`` as a dense ``(rows, k)`` block, in one pass over ``C'``.

        Never multiplies another column's value, so a NaN or ±inf elsewhere
        in a row stays out (:func:`repro.core.ops.matrix_columns`).
        """
        return ops.matrix_columns(self.logical, cols, self.decode_tree)

    def column(self, col: int) -> np.ndarray:
        """Column ``col`` as a dense vector."""
        return self.columns([col])[:, 0]

    def scale(self, scalar: float) -> "TOCMatrix":
        """``A .* c`` — returns a new TOC matrix sharing the code arrays."""
        scaled = ops.matrix_times_scalar(self.logical, scalar)
        return TOCMatrix(logical=scaled, variant=self.variant, _decode_tree=None)

    def power(self, exponent: float) -> "TOCMatrix":
        """``A .^ p`` for positive ``p`` (sparse-safe)."""
        powered = ops.matrix_elementwise_power(self.logical, exponent)
        return TOCMatrix(logical=powered, variant=self.variant, _decode_tree=None)

    def add_scalar(self, scalar: float) -> np.ndarray:
        """``A .+ c`` — sparse-unsafe, returns a dense matrix (Algorithm 6)."""
        return ops.matrix_plus_scalar(self.logical, scalar, self.decode_tree)

    # -- decoding ------------------------------------------------------------

    def to_sparse(self) -> SparseEncodedTable:
        """Decode back to the sparse-encoded table."""
        return ops.decode_to_sparse(self.logical, self.decode_tree)

    def to_dense(self) -> np.ndarray:
        """Fully decode back to a dense NumPy matrix (the row-slice walk over every row)."""
        return ops.decode_to_dense(self.logical, self.decode_tree)

    def row_slice(self, rows: np.ndarray) -> np.ndarray:
        """Dense copy of the selected rows, in request order.

        Decodes only the selected rows' code runs through the decode tree
        (``O(selected codes)``) — no selection matrix, no full decode.
        Duplicate indices yield independent output rows.
        """
        return ops.decode_rows_to_dense(self.logical, rows, self.decode_tree)

    # -- statistics -----------------------------------------------------------

    def compression_ratio(self) -> float:
        """Dense (DEN) size divided by the compressed size."""
        dense_bytes = self.n_rows * self.n_cols * 8
        return dense_bytes / max(self.nbytes, 1)

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
