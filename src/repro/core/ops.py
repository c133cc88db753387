"""Compressed matrix-operation execution over the TOC output (Section 4).

All kernels work on the logical-encoding outputs ``I`` (first layer) and
``D`` (encoded table), plus the decoding tree ``C'`` rebuilt by
:func:`repro.core.decode_tree.build_decode_tree`.  The four classes of
operations the paper distinguishes are covered:

* sparse-safe element-wise ops (``A .* c``, ``A .^ 2``) — only ``I`` is
  touched (Algorithm 3);
* right multiplications (``A @ v``, ``A @ M``) — one scan of ``C'`` followed
  by one scan of ``D`` (Algorithm 4 / 7, Theorems 1 and 3);
* left multiplications (``v @ A``, ``M @ A``) — one scan of ``D`` followed by
  a backwards scan of ``C'`` (Algorithm 5 / 8, Theorems 2 and 4);
* sparse-unsafe element-wise ops (``A .+ c``) — require full decoding
  (Algorithm 6).

The four multiplications run on the tree's level-major layout
(:class:`repro.core.decode_tree.LevelLayout`, built once per tree): a depth
is one slice of positions, so the per-node recurrences are one vectorised
step per level — ``H[lo:hi] += H[parents[lo:hi]]`` going down for the right
products, and for the left products one ``bincount`` (one sparse product,
``k`` columns wide) pushing a level's weights into the level above.  The
scans of ``D`` are one ``bincount`` / ``reduceat`` / sparse product each.
``A @ v`` is bit-equal to the recurrence evaluated node by node.  Column
extraction (:func:`matrix_columns`) runs the right recurrence once for every
requested column, with the other columns' keys set to 0, so a NaN or ±inf
elsewhere in a row never leaks in.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.decode_tree import DecodeTree, LevelLayout, build_decode_tree
from repro.core.logical import LogicalEncoding
from repro.core.sparse import SparseEncodedTable


def _as_decode_tree(encoding: LogicalEncoding, tree: DecodeTree | None) -> DecodeTree:
    return tree if tree is not None else build_decode_tree(encoding)


def _row_ids(encoding: LogicalEncoding) -> np.ndarray:
    """Row id of every code in the flattened encoded table ``D``."""
    return np.repeat(
        np.arange(encoding.n_rows, dtype=np.int64), np.diff(encoding.row_offsets)
    )


# ---------------------------------------------------------------------------
# Sparse-safe element-wise operations (Algorithm 3)
# ---------------------------------------------------------------------------


def matrix_times_scalar(encoding: LogicalEncoding, scalar: float) -> LogicalEncoding:
    """``A .* c`` executed by rescaling the first-layer values only."""
    return LogicalEncoding(
        first_layer_columns=encoding.first_layer_columns,
        first_layer_values=encoding.first_layer_values * float(scalar),
        codes=encoding.codes,
        row_offsets=encoding.row_offsets,
        shape=encoding.shape,
    )


def matrix_elementwise_power(encoding: LogicalEncoding, exponent: float) -> LogicalEncoding:
    """``A .^ p`` (sparse-safe for positive exponents) on the first layer."""
    if exponent <= 0:
        raise ValueError("element-wise power is only sparse-safe for positive exponents")
    return LogicalEncoding(
        first_layer_columns=encoding.first_layer_columns,
        first_layer_values=encoding.first_layer_values ** float(exponent),
        codes=encoding.codes,
        row_offsets=encoding.row_offsets,
        shape=encoding.shape,
    )


def matrix_apply_sparse_safe(
    encoding: LogicalEncoding, func
) -> LogicalEncoding:
    """Apply an arbitrary sparse-safe scalar function to every stored value.

    ``func`` must map 0 to 0 for the result to equal the dense computation;
    that property is the caller's responsibility (it is asserted in tests).
    """
    return LogicalEncoding(
        first_layer_columns=encoding.first_layer_columns,
        first_layer_values=np.asarray(func(encoding.first_layer_values), dtype=np.float64),
        codes=encoding.codes,
        row_offsets=encoding.row_offsets,
        shape=encoding.shape,
    )


# ---------------------------------------------------------------------------
# Right multiplication (Theorem 1 / Algorithm 4 and Theorem 3 / Algorithm 7)
# ---------------------------------------------------------------------------


def _prefix_products(layout: LevelLayout, own: np.ndarray) -> np.ndarray:
    """``H[i] = own[i] + H[parent(i)]`` for every node: one scan of ``C'``, in place.

    ``own`` is each node's own term (``key · v``, or ``key · M`` row-wise);
    a level at a time, each level a slice whose parents the slice before
    has already resolved.
    """
    parents = layout.parents
    for lo, hi in layout.levels:
        own[lo:hi] += own.take(parents[lo:hi], axis=0)
    return own


def _row_sums(layout: LevelLayout, h: np.ndarray, n_rows: int) -> np.ndarray:
    """One scan of ``D``: every row sums its codes' ``H`` (one segmented ``reduceat``).

    ``H`` is one value per node, or one row of ``k`` values per node.
    """
    result = np.zeros((n_rows, *h.shape[1:]), dtype=np.float64)
    if layout.row_starts.size:
        result[layout.nonempty_rows] = np.add.reduceat(
            h.take(layout.codes, axis=0), layout.row_starts, axis=0
        )
    return result


def matrix_times_vector(
    encoding: LogicalEncoding,
    vector: np.ndarray,
    tree: DecodeTree | None = None,
) -> np.ndarray:
    """``A @ v`` executed directly on the TOC output (Algorithm 4)."""
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.size != encoding.n_cols:
        raise ValueError(f"vector has length {v.size}, expected {encoding.n_cols}")
    layout = _as_decode_tree(encoding, tree).layout
    keys_dot_v = layout.key_values * v.take(layout.key_columns)
    keys_dot_v[0] = 0.0  # the root carries no key
    return _row_sums(layout, _prefix_products(layout, keys_dot_v), encoding.n_rows)


def matrix_columns(
    encoding: LogicalEncoding, columns, tree: DecodeTree | None = None
) -> np.ndarray:
    """Columns ``columns`` of ``A`` as a dense ``(rows, k)`` block, implicit zeros included.

    The recurrence of :func:`matrix_times_matrix` run once over a ``(nodes, k)``
    block of own keys: a key in a requested column is taken as it is, every
    other key is *set* to 0 rather than multiplied by 0 (``A @ E`` would turn
    a NaN or ±inf stored in another column into a NaN in this one).  Then
    one 2-D segmented ``reduceat`` over ``D`` sums every row's codes.
    """
    index = np.asarray(columns, dtype=np.int64).ravel()
    outside = index[(index < 0) | (index >= encoding.n_cols)]
    if outside.size:
        raise IndexError(f"column {int(outside[0])} out of range [0, {encoding.n_cols})")
    layout = _as_decode_tree(encoding, tree).layout
    # Built (k, nodes) and transposed: a (nodes, k) broadcast runs k-wide inner loops.
    own = np.where(layout.key_columns == index[:, None], layout.key_values, 0.0).T.copy()
    own[0] = 0.0  # the root carries no key
    return _row_sums(layout, _prefix_products(layout, own), encoding.n_rows)


def matrix_times_matrix(
    encoding: LogicalEncoding,
    matrix: np.ndarray,
    tree: DecodeTree | None = None,
) -> np.ndarray:
    """``A @ M`` executed directly on the TOC output (Algorithm 7)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != encoding.n_cols:
        raise ValueError(
            f"matrix has shape {m.shape}, expected ({encoding.n_cols}, k)"
        )
    layout = _as_decode_tree(encoding, tree).layout
    keys_dot_m = m.take(layout.key_columns, axis=0)
    keys_dot_m *= layout.key_values[:, None]
    keys_dot_m[0] = 0.0
    # Every row sums its codes' H with one sparse product, never expanding
    # D to |D| x k.
    return layout.code_matrix @ _prefix_products(layout, keys_dot_m)


# ---------------------------------------------------------------------------
# Left multiplication (Theorem 2 / Algorithm 5 and Theorem 4 / Algorithm 8)
# ---------------------------------------------------------------------------


def vector_times_matrix(
    encoding: LogicalEncoding,
    vector: np.ndarray,
    tree: DecodeTree | None = None,
) -> np.ndarray:
    """``v @ A`` executed directly on the TOC output (Algorithm 5)."""
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.size != encoding.n_rows:
        raise ValueError(f"vector has length {v.size}, expected {encoding.n_rows}")
    layout = _as_decode_tree(encoding, tree).layout
    # One scan of D: G(i), the total weight of the rows referencing node i.
    g = np.bincount(
        layout.codes, weights=np.repeat(v, layout.row_lengths), minlength=layout.n_nodes
    )
    # Backwards scan of C', deepest level first: each level's weights land
    # in the level above with one bincount over the parents (counted from
    # that level's start, so each bincount is as wide as the level above).
    levels, parents = layout.levels, layout.level_parents
    for (plo, phi), (lo, hi) in zip(levels[-2::-1], levels[:0:-1]):
        g[plo:phi] += np.bincount(parents[lo:hi], weights=g[lo:hi], minlength=phi - plo)
    # Every node's weight is now final: emit key · weight, one bincount by column
    # (which counts in integers when there is no node at all, only the root).
    emitting = layout.emitting
    return np.bincount(
        layout.key_columns[emitting],
        weights=layout.key_values[emitting] * g[emitting],
        minlength=encoding.n_cols,
    ).astype(np.float64, copy=False)


def uncompressed_matrix_times_matrix(
    encoding: LogicalEncoding,
    matrix: np.ndarray,
    tree: DecodeTree | None = None,
) -> np.ndarray:
    """``M @ A`` executed directly on the TOC output (Algorithm 8)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != encoding.n_rows:
        raise ValueError(
            f"matrix has shape {m.shape}, expected (k, {encoding.n_rows})"
        )
    layout = _as_decode_tree(encoding, tree).layout
    # One scan of D: G[i, :] sums M[:, row] over the rows referencing node i
    # (transposed, so a node's weights are one contiguous row).
    g = layout.code_matrix.T @ m.T
    # Backwards scan of C', deepest level first: each level's sibling groups
    # sum into their parents with one sparse product.
    levels = layout.levels
    for (plo, phi), (lo, hi), parent_of in zip(
        levels[-2::-1], levels[:0:-1], reversed(layout.parent_matrices)
    ):
        g[plo:phi] += parent_of @ g[lo:hi]
    # Every node's weights are final: emit key · weights by column.
    return (layout.key_matrix @ g[layout.emitting]).T


# ---------------------------------------------------------------------------
# Sparse-unsafe element-wise operations (Algorithm 6) and full decode
# ---------------------------------------------------------------------------


def decode_to_sparse(
    encoding: LogicalEncoding, tree: DecodeTree | None = None
) -> SparseEncodedTable:
    """Decode the logical encoding back to a sparse-encoded table.

    Linear in the number of output pairs: every code's sequence is written
    back-to-front by walking up the tree, with all codes advanced in lockstep
    (one vectorised step per tree level).
    """
    ctree = _as_decode_tree(encoding, tree)
    lengths_per_code = ctree.depths[encoding.codes]
    total_pairs = int(lengths_per_code.sum())
    columns = np.zeros(total_pairs, dtype=np.int64)
    values = np.zeros(total_pairs, dtype=np.float64)

    if encoding.codes.size:
        ends = np.cumsum(lengths_per_code)
        current = encoding.codes.copy()
        positions = ends - 1
        active = current != 0
        while np.any(active):
            idx = positions[active]
            nodes = current[active]
            columns[idx] = ctree.key_columns[nodes]
            values[idx] = ctree.key_values[nodes]
            current[active] = ctree.parents[nodes]
            positions[active] -= 1
            active = current != 0

    # Row offsets in pair space: sum of sequence lengths per row.
    row_offsets = np.zeros(encoding.n_rows + 1, dtype=np.int64)
    if encoding.codes.size:
        row_ids = _row_ids(encoding)
        pairs_per_row = np.bincount(
            row_ids, weights=lengths_per_code, minlength=encoding.n_rows
        ).astype(np.int64)
        np.cumsum(pairs_per_row, out=row_offsets[1:])
    return SparseEncodedTable(
        columns=columns,
        values=values,
        row_offsets=row_offsets,
        shape=encoding.shape,
    )


def decode_to_dense(
    encoding: LogicalEncoding, tree: DecodeTree | None = None
) -> np.ndarray:
    """Fully decode the TOC output to a dense matrix: the row-slice walk over every row."""
    return decode_rows_to_dense(encoding, np.arange(encoding.n_rows), tree)


def decode_rows_to_dense(
    encoding: LogicalEncoding,
    rows: np.ndarray,
    tree: DecodeTree | None = None,
) -> np.ndarray:
    """Decode only ``rows`` (in request order, duplicates kept) to dense.

    Gathers just the selected rows' code runs and walks them through the
    decode tree — ``O(selected codes × depth)``, never touching the other
    rows' codes or materialising a selection matrix.
    """
    ctree = _as_decode_tree(encoding, tree)
    index = np.asarray(rows, dtype=np.intp).ravel()
    if index.size and (index.min() < 0 or index.max() >= encoding.n_rows):
        raise IndexError("row index out of range")
    return kernels.toc_row_slice(
        encoding.codes,
        encoding.row_offsets,
        ctree.key_columns,
        ctree.key_values,
        ctree.parents,
        index,
        encoding.n_cols,
    )


def matrix_plus_scalar(
    encoding: LogicalEncoding, scalar: float, tree: DecodeTree | None = None
) -> np.ndarray:
    """``A .+ c`` — sparse-unsafe, so the matrix is decoded first (Algorithm 6)."""
    return decode_to_dense(encoding, tree) + float(scalar)


def matrix_plus_matrix(
    encoding: LogicalEncoding, other: np.ndarray, tree: DecodeTree | None = None
) -> np.ndarray:
    """``A + M`` — sparse-unsafe element-wise addition with a dense matrix."""
    dense = decode_to_dense(encoding, tree)
    other = np.asarray(other, dtype=np.float64)
    if other.shape != dense.shape:
        raise ValueError(f"shape mismatch: {dense.shape} vs {other.shape}")
    return dense + other
