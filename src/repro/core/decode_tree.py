"""The decoding prefix tree ``C'`` (Algorithm 2 of the paper), level-major.

``C'`` is a simplified variant of the encoding tree ``C``: every node keeps
its key and the index of its *parent*, but not of its children.  It can be
rebuilt from the logical-encoding outputs ``I`` and ``D`` alone by replaying
the same node-creation order that Algorithm 1 used, which is what makes it
unnecessary to ship the full tree with the compressed batch.

The rebuild is paid by every read of a TOC shard that is not already cached
(each serving miss, each shard of each training epoch, each scan), so
:func:`build_decode_tree` goes from ``I`` and ``D`` — straight out of a
payload's bytes, see :func:`repro.core.physical.physical_decode` — to the one
structure every kernel runs on, :class:`DecodeTree`, in a fixed number of
whole-array NumPy passes plus one pointer-doubling loop.  The nodes are
stored *level-major*: every depth is one contiguous range of positions,
every parent lies in the range before its child's, and within a depth the
nodes keep their creation order.  Position 0 is the root, parents are
positions, and ``D``'s codes are remapped to positions, so a point lookup
(``row_slice``, ``to_sparse``) walks ``parents`` up to position 0 as it
would in creation order, and each step of a multiplication kernel is one
slice-wide gather or ``bincount`` with no sort.

The tree is stored in struct-of-arrays form (parallel NumPy arrays indexed
by position) so the compressed matrix kernels in :mod:`repro.core.ops` can
scan it without Python-object overhead.  Each rebuild counts one
``core.decode_tree.builds`` and one ``core.decode_tree.build_seconds``
observation in :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from repro.core.logical import LogicalEncoding
from repro.core.validate import EncodingError
from repro.obs import metrics as _metrics

_BUILDS = _metrics.counter("core.decode_tree.builds")
_BUILD_SECONDS = _metrics.histogram("core.decode_tree.build_seconds")


@dataclass(frozen=True)
class DecodeTree:
    """``C'`` renumbered level-major, with ``D`` remapped into the same numbering.

    Position 0 is the root and carries no key (its entries are zero).
    Depth ``d`` occupies the positions ``lo:hi = levels[d - 1]``, so a level
    is one slice; positions ``1 .. |I|`` are the first layer, in ``I``'s
    order.  For every position:

    * ``key_columns`` / ``key_values`` — the pair stored at the node,
    * ``parents`` — the parent's position,
    * ``level_parents`` — the same counted from the start of the level
      above, so a sum into that level is as wide as it, not as the tree.

    ``codes`` are ``D``'s codes as positions.  ``row_lengths`` counts each
    row's codes, ``row_starts`` are the first code of every non-empty row
    (``nonempty_rows`` marks them): the segments a per-row ``reduceat``
    sums.  ``emitting`` selects the positions whose keys a left
    multiplication multiplies by their weight: every non-root node, unless a
    first-layer value is NaN or ±inf; then only the nodes some row reaches
    (a code at or below them), since a node no row reaches carries an exact
    0 weight that the dense product never multiplies, and ``0 * inf`` would
    be a NaN.  The sparse operators of the matrix-matrix kernels are built
    on first use.
    """

    parents: np.ndarray
    level_parents: np.ndarray
    key_columns: np.ndarray
    key_values: np.ndarray
    codes: np.ndarray
    row_offsets: np.ndarray
    row_lengths: np.ndarray
    row_starts: np.ndarray
    nonempty_rows: np.ndarray
    levels: tuple[tuple[int, int], ...]
    emitting: slice | np.ndarray
    shape: tuple[int, int]

    def __len__(self) -> int:
        return int(self.parents.size)

    @property
    def n_nodes(self) -> int:
        """Number of nodes including the root."""
        return len(self)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def max_depth(self) -> int:
        """Length of the longest sequence stored in the tree."""
        return len(self.levels)

    def sequence(self, position: int) -> tuple[list[int], list[float]]:
        """Return the pair sequence represented by the node at ``position`` (root→node)."""
        cols: list[int] = []
        vals: list[float] = []
        node = int(position)
        while node != 0:
            cols.append(int(self.key_columns[node]))
            vals.append(float(self.key_values[node]))
            node = int(self.parents[node])
        cols.reverse()
        vals.reverse()
        return cols, vals

    @cached_property
    def code_matrix(self) -> sp.csr_array:
        """``D`` as a sparse ``(rows, positions)`` matrix: how often a row references a node."""
        return sp.csr_array(
            (np.ones(self.codes.size), self.codes, self.row_offsets),
            shape=(self.n_rows, self.n_nodes),
        )

    @cached_property
    def key_matrix(self) -> sp.csc_array:
        """The :attr:`emitting` keys as a sparse ``(columns, nodes)`` matrix, one entry per node."""
        columns = self.key_columns[self.emitting]
        return sp.csc_array(
            (self.key_values[self.emitting], columns, np.arange(columns.size + 1)),
            shape=(self.n_cols, columns.size),
        )

    @cached_property
    def parent_matrices(self) -> tuple[sp.csc_array, ...]:
        """Per level below the first, the ``(level above, level)`` matrix of its parent links.

        Multiplying a level's rows by it sums every sibling group into its
        parent's row, which is one step of the backwards scan of ``C'``.
        """
        matrices = []
        for (plo, phi), (lo, hi) in zip(self.levels, self.levels[1:]):
            width = hi - lo
            matrices.append(
                sp.csc_array(
                    (np.ones(width), self.level_parents[lo:hi], np.arange(width + 1)),
                    shape=(phi - plo, width),
                )
            )
        return tuple(matrices)


def build_decode_tree(encoding: LogicalEncoding) -> DecodeTree:
    """Rebuild ``C'`` from ``I`` and ``D`` (Algorithm 2) in one doubling pass.

    Phase I seeds the tree with the first-layer pairs.  Phase II replays the
    encoded table: for every code except the last one of each row, a new node
    is appended whose parent is that code and whose key is the *first* pair of
    the sequence referenced by the following code — exactly how Algorithm 1
    grew the tree while encoding.

    Node creation order is a pure function of the code positions, so the
    parents are one gather.  The two per-node recurrences — the depth-1
    ancestor (whose pair is the node's first pair, ``F`` in Algorithm 2)
    and the node's depth — are resolved *together* by pointer doubling:
    every node carries a pointer to an ancestor and the number of hops to
    it, and each pass jumps the pointer to its own target while adding that
    target's hop count.  Parents strictly precede their children — checked
    before the loop, so a corrupt code stream raises
    :class:`~repro.core.validate.EncodingError` instead of spinning on a
    cycle — hence ``ceil(log2(max_depth))`` passes suffice.

    A stable sort by depth then gives the level-major positions, and every
    position's key is taken from ``[root] + I`` through the depth-1
    ancestor of its key's sequence: nothing is kept in creation order.
    ``encoding``'s arrays may be the narrow read-only views a payload parse
    returns; they are widened once here, never kept.
    """
    started = perf_counter()
    n_first = encoding.n_first_layer
    codes = encoding.codes.astype(np.intp, copy=False)
    row_offsets = encoding.row_offsets.astype(np.intp, copy=False)
    row_lengths = row_offsets[1:] - row_offsets[:-1]
    nonempty_rows = row_lengths > 0
    row_starts = row_offsets[:-1][nonempty_rows]
    n_nodes = 1 + n_first + codes.size - row_starts.size

    # Phase I: first-layer nodes 1..n_first are the root's children, each
    # its own depth-1 ancestor, zero hops away; the root (node 0) stays put.
    nodes = np.arange(n_nodes)
    parents = np.zeros(n_nodes, dtype=np.intp)
    ancestors = nodes.copy()
    hops = np.zeros(n_nodes, dtype=np.intp)
    if codes.size:
        # Phase II: a node is created at every code position except the last
        # one of each row.  An empty row's ``end - 1`` lands on the last
        # position of the previous non-empty row (or wraps to the very last
        # code), which is excluded already, so no row needs filtering out.
        creates = np.ones(codes.size, dtype=bool)
        creates[row_offsets[1:] - 1] = False
        creates = creates[:-1]
        new_parents = codes[:-1][creates]
        following_codes = codes[1:][creates]
        # The tree's own invariant, checked on the parents alone before
        # anything walks them; a following code may equal the node being
        # created (the LZW corner case) but not run ahead of it.
        new_nodes = nodes[n_first + 1 :]
        if (new_parents >= new_nodes).any():
            raise EncodingError("every node's parent must have a smaller index")
        if (following_codes > new_nodes).any():
            raise EncodingError("a code references a tree node before it is created")
        parents[n_first + 1 :] = new_parents
        ancestors[n_first + 1 :] = new_parents
        hops[n_first + 1 :] = 1
        while int(ancestors.max()) > n_first:
            hops += hops.take(ancestors)
            ancestors = ancestors.take(ancestors)
        # A node's key is the first pair of the sequence the *following* code
        # references; the corner case needs nothing special because the
        # node's own ancestor is already resolved.
        ancestors[n_first + 1 :] = ancestors.take(following_codes)

    # Level-major positions: depth counts the depth-1 ancestor itself on top
    # of the hops to it.  NumPy's stable sort is a radix sort on 8- and 16-bit
    # keys, i.e. one counting pass per key byte; deeper trees keep the wide key.
    hops[1:] += 1
    widths = np.bincount(hops)  # nodes per depth; the root is depth 0
    ends = widths.cumsum()
    if widths.size <= 1 << 8:
        hops = hops.astype(np.uint8)
    elif widths.size <= 1 << 16:
        hops = hops.astype(np.uint16)
    positions = hops.argsort(kind="stable")  # position -> node, the root first
    rank = np.empty(n_nodes, dtype=np.intp)  # node -> position
    rank[positions] = nodes
    tree_parents = rank.take(parents.take(positions))
    key_nodes = ancestors.take(positions)  # the first-layer node holding each key
    first_columns = np.zeros(n_first + 1, dtype=np.intp)
    first_columns[1:] = encoding.first_layer_columns
    first_values = np.zeros(n_first + 1, dtype=np.float64)
    first_values[1:] = encoding.first_layer_values
    try:
        tree_codes = rank.take(codes)
    except IndexError:
        raise EncodingError(
            f"code {int(codes.max())} exceeds the number of tree nodes {n_nodes - 1}"
        ) from None

    bounds = ends.tolist()
    levels = tuple(zip(bounds[:-1], bounds[1:]))
    # Each depth's parents counted from the start of the level above (the
    # root is its own level, and its own parent).
    parent_level_starts = np.zeros(ends.size, dtype=np.intp)
    parent_level_starts[2:] = ends[:-2]
    level_parents = tree_parents - parent_level_starts.repeat(widths)
    if np.isfinite(first_values).all():
        emitting: slice | np.ndarray = slice(1, None)
    else:
        reached = np.bincount(tree_codes, minlength=n_nodes) > 0
        for lo, hi in reversed(levels[1:]):
            reached[tree_parents[lo:hi][reached[lo:hi]]] = True
        reached[0] = False
        emitting = np.flatnonzero(reached)

    _BUILDS.inc()
    _BUILD_SECONDS.observe(perf_counter() - started)
    return DecodeTree(
        parents=tree_parents,
        level_parents=level_parents,
        key_columns=first_columns.take(key_nodes),
        key_values=first_values.take(key_nodes),
        codes=tree_codes,
        row_offsets=row_offsets,
        row_lengths=row_lengths,
        row_starts=row_starts,
        nonempty_rows=nonempty_rows,
        levels=levels,
        emitting=emitting,
        shape=encoding.shape,
    )
