"""Compressed matrix-operation execution over the TOC output (Section 4).

The sparse-safe element-wise ops work on the logical-encoding output ``I``
(first layer); everything else runs on the decoding tree ``C'``, the one
structure :func:`repro.core.decode_tree.build_decode_tree` rebuilds from
``I`` and ``D`` (:class:`repro.core.decode_tree.DecodeTree`, level-major,
with ``D``'s codes remapped into its numbering).  The four classes of
operations the paper distinguishes are covered:

* sparse-safe element-wise ops (``A .* c``, ``A .^ 2``) — only ``I`` is
  touched (Algorithm 3);
* right multiplications (``A @ v``, ``A @ M``) — one scan of ``C'`` followed
  by one scan of ``D`` (Algorithm 4 / 7, Theorems 1 and 3);
* left multiplications (``v @ A``, ``M @ A``) — one scan of ``D`` followed by
  a backwards scan of ``C'`` (Algorithm 5 / 8, Theorems 2 and 4);
* sparse-unsafe element-wise ops (``A .+ c``) — require full decoding
  (Algorithm 6).

Decoding rows (:func:`decode_rows_to_dense`, what ``row_slice`` and
``to_dense`` run) walks only the selected rows' codes up ``C'``.

A depth of the tree is one slice of positions, so the per-node recurrences
of the four multiplications are one vectorised step per level —
``H[lo:hi] += H[parents[lo:hi]]`` going down for the right products, and
for the left products one ``bincount`` (one sparse product, ``k`` columns
wide) pushing a level's weights into the level above.  The scans of ``D``
are one ``bincount`` / ``reduceat`` / sparse product each.  ``A @ v`` is
bit-equal to the recurrence evaluated node by node.  Column extraction
(:func:`matrix_columns`) runs the right recurrence once for every requested
column, with the other columns' keys set to 0, so a NaN or ±inf elsewhere
in a row never leaks in.
"""

from __future__ import annotations

import numpy as np

from repro.core.decode_tree import DecodeTree
from repro.core.logical import LogicalEncoding
from repro.core.sparse import SparseEncodedTable


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


# ---------------------------------------------------------------------------
# Right multiplication (Theorem 1 / Algorithm 4 and Theorem 3 / Algorithm 7)
# ---------------------------------------------------------------------------


def _prefix_products(tree: DecodeTree, own: np.ndarray) -> np.ndarray:
    """``H[i] = own[i] + H[parent(i)]`` for every node: one scan of ``C'``, in place.

    ``own`` is each node's own term (``key · v``, or ``key · M`` row-wise);
    a level at a time, each level a slice whose parents the slice before
    has already resolved.
    """
    parents = tree.parents
    for lo, hi in tree.levels:
        own[lo:hi] += own.take(parents[lo:hi], axis=0)
    return own


def _row_sums(tree: DecodeTree, h: np.ndarray) -> np.ndarray:
    """One scan of ``D``: every row sums its codes' ``H`` (one segmented ``reduceat``).

    ``H`` is one value per node, or one row of ``k`` values per node.
    """
    result = np.zeros((tree.n_rows, *h.shape[1:]), dtype=np.float64)
    if tree.row_starts.size:
        result[tree.nonempty_rows] = np.add.reduceat(
            h.take(tree.codes, axis=0), tree.row_starts, axis=0
        )
    return result


def matrix_times_vector(tree: DecodeTree, vector: np.ndarray) -> np.ndarray:
    """``A @ v`` executed directly on the TOC output (Algorithm 4)."""
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.size != tree.n_cols:
        raise ValueError(f"vector has length {v.size}, expected {tree.n_cols}")
    keys_dot_v = tree.key_values * v.take(tree.key_columns)
    keys_dot_v[0] = 0.0  # the root carries no key
    return _row_sums(tree, _prefix_products(tree, keys_dot_v))


def matrix_columns(tree: DecodeTree, columns) -> np.ndarray:
    """Columns ``columns`` of ``A`` as a dense ``(rows, k)`` block, implicit zeros included.

    The recurrence of :func:`matrix_times_matrix` run once over a ``(nodes, k)``
    block of own keys: a key in a requested column is taken as it is, every
    other key is *set* to 0 rather than multiplied by 0 (``A @ E`` would turn
    a NaN or ±inf stored in another column into a NaN in this one).  Then
    one 2-D segmented ``reduceat`` over ``D`` sums every row's codes.
    """
    index = np.asarray(columns, dtype=np.int64).ravel()
    outside = index[(index < 0) | (index >= tree.n_cols)]
    if outside.size:
        raise IndexError(f"column {int(outside[0])} out of range [0, {tree.n_cols})")
    # Built (k, nodes) and transposed: a (nodes, k) broadcast runs k-wide inner loops.
    own = np.where(tree.key_columns == index[:, None], tree.key_values, 0.0).T.copy()
    own[0] = 0.0  # the root carries no key
    return _row_sums(tree, _prefix_products(tree, own))


def matrix_times_matrix(tree: DecodeTree, matrix: np.ndarray) -> np.ndarray:
    """``A @ M`` executed directly on the TOC output (Algorithm 7)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != tree.n_cols:
        raise ValueError(f"matrix has shape {m.shape}, expected ({tree.n_cols}, k)")
    keys_dot_m = m.take(tree.key_columns, axis=0)
    keys_dot_m *= tree.key_values[:, None]
    keys_dot_m[0] = 0.0
    # Every row sums its codes' H with one sparse product, never expanding
    # D to |D| x k.
    return tree.code_matrix @ _prefix_products(tree, keys_dot_m)


# ---------------------------------------------------------------------------
# Left multiplication (Theorem 2 / Algorithm 5 and Theorem 4 / Algorithm 8)
# ---------------------------------------------------------------------------


def vector_times_matrix(tree: DecodeTree, vector: np.ndarray) -> np.ndarray:
    """``v @ A`` executed directly on the TOC output (Algorithm 5)."""
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.size != tree.n_rows:
        raise ValueError(f"vector has length {v.size}, expected {tree.n_rows}")
    # One scan of D: G(i), the total weight of the rows referencing node i.
    g = np.bincount(tree.codes, weights=np.repeat(v, tree.row_lengths), minlength=tree.n_nodes)
    # Backwards scan of C', deepest level first: each level's weights land
    # in the level above with one bincount over the parents (counted from
    # that level's start, so each bincount is as wide as the level above).
    levels, parents = tree.levels, tree.level_parents
    for (plo, phi), (lo, hi) in zip(levels[-2::-1], levels[:0:-1]):
        g[plo:phi] += np.bincount(parents[lo:hi], weights=g[lo:hi], minlength=phi - plo)
    # Every node's weight is now final: emit key · weight, one bincount by column
    # (which counts in integers when there is no node at all, only the root).
    emitting = tree.emitting
    return np.bincount(
        tree.key_columns[emitting],
        weights=tree.key_values[emitting] * g[emitting],
        minlength=tree.n_cols,
    ).astype(np.float64, copy=False)


def uncompressed_matrix_times_matrix(tree: DecodeTree, matrix: np.ndarray) -> np.ndarray:
    """``M @ A`` executed directly on the TOC output (Algorithm 8)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != tree.n_rows:
        raise ValueError(f"matrix has shape {m.shape}, expected (k, {tree.n_rows})")
    # One scan of D: G[i, :] sums M[:, row] over the rows referencing node i
    # (transposed, so a node's weights are one contiguous row).
    g = tree.code_matrix.T @ m.T
    # Backwards scan of C', deepest level first: each level's sibling groups
    # sum into their parents with one sparse product.
    levels = tree.levels
    for (plo, phi), (lo, hi), parent_of in zip(
        levels[-2::-1], levels[:0:-1], reversed(tree.parent_matrices)
    ):
        g[plo:phi] += parent_of @ g[lo:hi]
    # Every node's weights are final: emit key · weights by column.
    return (tree.key_matrix @ g[tree.emitting]).T


# ---------------------------------------------------------------------------
# Sparse-unsafe element-wise operations (Algorithm 6) and full decode
# ---------------------------------------------------------------------------


def decode_to_sparse(tree: DecodeTree) -> SparseEncodedTable:
    """Decode the TOC output back to a sparse-encoded table.

    Linear in the number of output pairs: every code's sequence is written
    back-to-front by walking up the tree, with all codes advanced in lockstep
    (one vectorised step per tree level).
    """
    widths = np.diff([0, 1, *(hi for _, hi in tree.levels)])  # the root, then each level
    depths = np.repeat(np.arange(widths.size), widths)
    lengths_per_code = depths.take(tree.codes)
    ends = np.cumsum(lengths_per_code)
    columns = np.zeros(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    values = np.zeros(columns.size, dtype=np.float64)
    current = tree.codes.copy()
    positions = ends - 1
    active = current != 0
    while np.any(active):
        idx = positions[active]
        nodes = current[active]
        columns[idx] = tree.key_columns[nodes]
        values[idx] = tree.key_values[nodes]
        current[active] = tree.parents[nodes]
        positions[active] -= 1
        active = current != 0

    # Row offsets in pair space: every row ends where its last code's sequence does.
    row_offsets = np.zeros(tree.n_rows + 1, dtype=np.int64)
    if ends.size:
        row_offsets[1:] = np.concatenate(([0], ends)).take(tree.row_offsets[1:])
    return SparseEncodedTable(
        columns=columns, values=values, row_offsets=row_offsets, shape=tree.shape
    )


def decode_to_dense(tree: DecodeTree) -> np.ndarray:
    """Fully decode the TOC output to a dense matrix: the row-slice walk over every row."""
    return decode_rows_to_dense(tree, np.arange(tree.n_rows))


def decode_rows_to_dense(tree: DecodeTree, rows: np.ndarray) -> np.ndarray:
    """Decode only ``rows`` (in request order, duplicates kept) to dense.

    Gathers the selected rows' code runs with one CSR-style range
    concatenation, then walks *all* gathered codes up the decode tree in
    lockstep (one vectorised step per tree level), scattering each level's
    key pairs straight into the dense output: ``O(selected codes × depth)``,
    never touching the other rows' codes or building a selection matrix.
    """
    index = np.asarray(rows, dtype=np.intp).ravel()
    if index.size and (index.min() < 0 or index.max() >= tree.n_rows):
        raise IndexError("row index out of range")
    out = np.zeros((index.size, tree.n_cols), dtype=np.float64)
    if index.size == 0 or tree.codes.size == 0:
        return out
    starts = tree.row_offsets[index]
    counts = tree.row_offsets[index + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return out
    out_rows = np.repeat(np.arange(index.size, dtype=np.int64), counts)
    range_offsets = np.zeros(index.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=range_offsets[1:])
    positions = np.arange(total, dtype=np.int64) - range_offsets[out_rows] + starts[out_rows]
    current = tree.codes[positions].copy()
    # Every gathered code emits its node's key pair and steps to its parent;
    # a code retires when it reaches the root.  Within one row the pairs of
    # different codes touch distinct columns, so the scatter never collides.
    active = current != 0
    rows_active = out_rows
    while active.any():
        if not active.all():
            current = current[active]
            rows_active = rows_active[active]
        out[rows_active, tree.key_columns[current]] = tree.key_values[current]
        current = tree.parents[current]
        active = current != 0
    return out


def matrix_plus_scalar(tree: DecodeTree, scalar: float) -> np.ndarray:
    """``A .+ c`` — sparse-unsafe, so the matrix is decoded first (Algorithm 6)."""
    return decode_to_dense(tree) + float(scalar)
