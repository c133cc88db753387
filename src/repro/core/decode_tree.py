"""The decoding prefix tree ``C'`` (Algorithm 2 of the paper).

``C'`` is a simplified variant of the encoding tree ``C``: every node keeps
its key and the index of its *parent*, but not of its children.  It can be
rebuilt from the logical-encoding outputs ``I`` and ``D`` alone by replaying
the same node-creation order that Algorithm 1 used, which is what makes it
unnecessary to ship the full tree with the compressed batch.

The rebuild is paid by every read of a TOC shard that is not already cached
(each serving miss, each shard of each training epoch, each scan), so
:func:`build_decode_tree` is a fixed number of whole-array NumPy passes plus
one pointer-doubling loop that resolves the first-pair array ``F`` and the
node depths together.  Point lookups (``row_slice``, ``to_sparse``) walk
``parents`` in creation order and need nothing more.

The multiplication kernels need the tree one depth at a time, so the first
of them to run builds :class:`LevelLayout` and the tree caches it: the nodes
renumbered level-major (every depth one contiguous range of positions, every
parent in the range before its child's) with the keys, the parents and the
codes of ``D`` remapped into that numbering.  A level is then a slice, and
each kernel step is a slice-wide gather or ``bincount`` with no sort.

The tree is stored in struct-of-arrays form (parallel NumPy arrays indexed
by node id) so the compressed matrix kernels in :mod:`repro.core.ops` can
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
    """Struct-of-arrays decoding tree.

    Index 0 is the root and carries no key (its entries are zero-filled).
    For node ``i >= 1``:

    * ``key_columns[i]`` / ``key_values[i]`` — the pair stored at the node,
    * ``parents[i]`` — the parent node index,
    * ``first_columns[i]`` / ``first_values[i]`` — the first pair of the
      sequence the node represents (the ``F`` array of Algorithm 2),
    * ``depths[i]`` — length of that sequence.

    ``encoding`` is the logical encoding the tree was rebuilt from (shared,
    not copied): :attr:`layout` remaps its codes.
    """

    key_columns: np.ndarray
    key_values: np.ndarray
    parents: np.ndarray
    first_columns: np.ndarray
    first_values: np.ndarray
    depths: np.ndarray
    encoding: LogicalEncoding

    @cached_property
    def layout(self) -> LevelLayout:
        """The level-major renumbering the multiplication kernels run on, built once."""
        return _level_major_layout(self)

    def __len__(self) -> int:
        return int(self.key_columns.size)

    @property
    def max_depth(self) -> int:
        """Length of the longest sequence stored in the tree."""
        return int(self.depths.max())

    @property
    def n_nodes(self) -> int:
        """Number of nodes including the root."""
        return len(self)

    def sequence(self, index: int) -> tuple[list[int], list[float]]:
        """Return the pair sequence represented by node ``index`` (root→node)."""
        cols: list[int] = []
        vals: list[float] = []
        node = int(index)
        while node != 0:
            cols.append(int(self.key_columns[node]))
            vals.append(float(self.key_values[node]))
            node = int(self.parents[node])
        cols.reverse()
        vals.reverse()
        return cols, vals

    def validate(self) -> None:
        """Check structural invariants (parents precede children, root fixed)."""
        _check_parents(self.parents)


def _check_parents(parents: np.ndarray) -> None:
    """Raise unless the root is its own parent and every other parent precedes its child."""
    if parents[0] != 0:
        raise EncodingError("the root must be its own parent")
    if (parents[1:] >= np.arange(1, parents.size)).any():
        raise EncodingError("every node's parent must have a smaller index")
    if parents.min() < 0:
        raise EncodingError("parent indexes must be non-negative")


def build_decode_tree(encoding: LogicalEncoding) -> DecodeTree:
    """Rebuild ``C'`` from ``I`` and ``D`` (Algorithm 2) in one doubling pass.

    Phase I seeds the tree with the first-layer pairs.  Phase II replays the
    encoded table: for every code except the last one of each row, a new node
    is appended whose parent is that code and whose key is the *first* pair of
    the sequence referenced by the following code — exactly how Algorithm 1
    grew the tree while encoding.

    Node creation order is a pure function of the code positions, so the
    parents are one gather.  The two per-node recurrences — the depth-1
    ancestor (whose pair is the node's ``F`` entry) and the node's depth —
    are resolved *together* by pointer doubling: every node carries a pointer
    to an ancestor and the number of hops to it, and each pass jumps the
    pointer to its own target while adding that target's hop count.  Parents
    strictly precede their children — checked before the loop, so a corrupt
    code stream raises :class:`~repro.core.validate.EncodingError` instead of
    spinning on a cycle — hence ``ceil(log2(max_depth))`` passes suffice.

    The level layout is not built here; see :attr:`DecodeTree.layout`.
    """
    started = perf_counter()
    n_first = encoding.n_first_layer
    n_nodes = 1 + encoding.n_tree_nodes
    codes = encoding.codes

    # Phase I: first-layer nodes 1..n_first (index 0, the root, stays zero).
    key_columns = np.zeros(n_nodes, dtype=np.int64)
    key_values = np.zeros(n_nodes, dtype=np.float64)
    key_columns[1 : n_first + 1] = encoding.first_layer_columns
    key_values[1 : n_first + 1] = encoding.first_layer_values
    parents = np.zeros(n_nodes, dtype=np.int64)
    # Every node starts at itself, zero hops away; new nodes then start at
    # their parent, one hop away.
    ancestors = np.arange(n_nodes, dtype=np.int64)
    hops = np.zeros(n_nodes, dtype=np.int64)
    new_nodes = slice(n_first + 1, n_nodes)

    if codes.size:
        if int(codes.max()) >= n_nodes:
            raise EncodingError(
                f"code {int(codes.max())} exceeds the number of tree nodes {n_nodes - 1}"
            )
        # Phase II: a node is created at every code position except the last
        # one of each row.  An empty row's ``end - 1`` lands on the last
        # position of the previous non-empty row (or wraps to the very last
        # code), which is excluded already, so no row needs filtering out.
        creates = np.ones(codes.size, dtype=bool)
        creates[encoding.row_offsets[1:] - 1] = False
        creates = creates[:-1]
        parents[new_nodes] = codes[:-1][creates]
        following_codes = codes[1:][creates]
        # The tree's own invariant, checked on the parents alone before
        # anything walks them; a following code may equal the node being
        # created (the LZW corner case) but not run ahead of it.
        _check_parents(parents)
        if (following_codes > ancestors[new_nodes]).any():  # still each node's own id
            raise EncodingError("a code references a tree node before it is created")

        hops[new_nodes] = 1
        ancestors[new_nodes] = parents[new_nodes]
        while int(ancestors.max()) > n_first:
            hops += hops.take(ancestors)
            ancestors = ancestors.take(ancestors)
    else:
        following_codes = codes  # no codes, no new nodes

    first_columns = key_columns.take(ancestors)
    first_values = key_values.take(ancestors)
    # A node's key is the first pair of the sequence referenced by the
    # *following* code; the corner case needs nothing special because the
    # node's own ``F`` entry is already resolved.
    key_columns[new_nodes] = first_columns.take(following_codes)
    key_values[new_nodes] = first_values.take(following_codes)

    # Depth counts the depth-1 ancestor itself on top of the hops to it.
    hops[1:] += 1
    _BUILDS.inc()
    _BUILD_SECONDS.observe(perf_counter() - started)
    return DecodeTree(
        key_columns=key_columns,
        key_values=key_values,
        parents=parents,
        first_columns=first_columns,
        first_values=first_values,
        depths=hops,
        encoding=encoding,
    )


@dataclass(frozen=True)
class LevelLayout:
    """``C'`` renumbered level-major, with ``D`` remapped into the same numbering.

    Position 0 is the root.  Depth ``d`` occupies the positions
    ``lo:hi = levels[d - 1]``, so a level is one slice and every parent lies
    in the slice of the level above (the root, for depth 1).  Within a level
    the nodes keep their creation order.  ``parents``, ``key_columns`` and
    ``key_values`` are indexed by position; ``codes`` are ``D``'s codes as
    positions.  ``row_lengths`` counts each row's codes, ``row_starts`` are
    the first code of every non-empty row (``nonempty_rows`` marks them): the
    segments a per-row ``reduceat`` sums.  What only some kernels need —
    :attr:`emitting` and the sparse operators of the matrix-matrix kernels —
    is built on first use.
    """

    parents: np.ndarray
    key_columns: np.ndarray
    key_values: np.ndarray
    codes: np.ndarray
    row_offsets: np.ndarray
    row_lengths: np.ndarray
    row_starts: np.ndarray
    nonempty_rows: np.ndarray
    levels: tuple[tuple[int, int], ...]
    n_cols: int

    @property
    def n_nodes(self) -> int:
        return int(self.parents.size)

    @property
    def n_rows(self) -> int:
        return int(self.row_lengths.size)

    @cached_property
    def emitting(self) -> slice | np.ndarray:
        """The positions whose keys a left multiplication multiplies by their weight.

        Every non-root node, unless a key is NaN or ±inf: then only the
        nodes some row reaches (a code at or below them).  A node no row
        reaches carries an exact 0 weight that the dense product never
        multiplies, and ``0 * inf`` would be a NaN.
        """
        if np.isfinite(self.key_values).all():
            return slice(1, None)
        reached = np.bincount(self.codes, minlength=self.n_nodes) > 0
        for lo, hi in reversed(self.levels[1:]):
            parents = self.parents[lo:hi]
            reached[parents[reached[lo:hi]]] = True
        reached[0] = False
        return np.flatnonzero(reached)

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
    def level_parents(self) -> np.ndarray:
        """Every position's parent counted from the start of the level above.

        A level's entries index into the level above as a slice, so a sum
        over them is as wide as that level, not as the whole tree.
        """
        levels = ((0, 1), *self.levels)  # the root is its own level, and its own parent
        starts = [0] + [lo for lo, _ in levels[:-1]]
        widths = [hi - lo for lo, hi in levels]
        return self.parents - np.repeat(starts, widths)

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


def _level_major_layout(tree: DecodeTree) -> LevelLayout:
    depths = tree.depths
    ends = np.cumsum(np.bincount(depths))  # depth d ends at ends[d]; the root is depth 0
    # NumPy's stable sort is a radix sort on 8- and 16-bit keys, i.e. one
    # counting pass per key byte; depths beyond 16 bits keep the wide key.
    if ends.size <= np.iinfo(np.uint8).max + 1:
        depths = depths.astype(np.uint8)
    elif ends.size <= np.iinfo(np.uint16).max + 1:
        depths = depths.astype(np.uint16)
    positions = np.argsort(depths, kind="stable")  # position -> node id, the root first
    rank = np.empty_like(positions)  # node id -> position
    rank[positions] = np.arange(positions.size)
    encoding = tree.encoding
    row_offsets = encoding.row_offsets
    row_lengths = row_offsets[1:] - row_offsets[:-1]
    nonempty_rows = row_lengths > 0
    bounds = ends.tolist()
    return LevelLayout(
        parents=rank.take(tree.parents.take(positions)),
        key_columns=tree.key_columns.take(positions),
        key_values=tree.key_values.take(positions),
        codes=rank.take(encoding.codes),
        row_offsets=row_offsets,
        row_lengths=row_lengths,
        row_starts=row_offsets[:-1][nonempty_rows],
        nonempty_rows=nonempty_rows,
        levels=tuple(zip(bounds[:-1], bounds[1:])),
        n_cols=encoding.n_cols,
    )
