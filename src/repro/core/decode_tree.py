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
node depths together.  What only some readers need is built on first use:
the level index (``level_order`` / ``level_offsets``) serves the
multiplication kernels' level-by-level recurrences, while point lookups
(``row_slice``, ``to_sparse``) walk ``parents`` directly and never pay for it.

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

    ``level_order`` / ``level_offsets`` group the non-root nodes by depth
    (``level_order[level_offsets[d-1]:level_offsets[d]]`` are the nodes at
    depth ``d``).  The compressed kernels use them to evaluate the
    parent-recurrences one level at a time with vectorised NumPy operations
    instead of a per-node Python loop.  They are derived from ``depths`` the
    first time anything asks for them and cached on the instance.
    """

    key_columns: np.ndarray
    key_values: np.ndarray
    parents: np.ndarray
    first_columns: np.ndarray
    first_values: np.ndarray
    depths: np.ndarray

    @cached_property
    def _level_index(self) -> tuple[np.ndarray, np.ndarray]:
        return _group_by_depth(self.depths)

    @property
    def level_order(self) -> np.ndarray:
        """Non-root node ids sorted by depth (ties in node-id order)."""
        return self._level_index[0]

    @property
    def level_offsets(self) -> np.ndarray:
        """``level_offsets[d]`` is where depth ``d + 1`` starts in ``level_order``."""
        return self._level_index[1]

    def __len__(self) -> int:
        return int(self.key_columns.size)

    @property
    def max_depth(self) -> int:
        """Length of the longest sequence stored in the tree."""
        return int(self.level_offsets.size - 1)

    def iter_levels(self, reverse: bool = False):
        """Yield the node-index array of each depth level (1..max_depth)."""
        order, offsets = self._level_index
        depths = range(self.max_depth, 0, -1) if reverse else range(1, self.max_depth + 1)
        for depth in depths:
            yield order[offsets[depth - 1] : offsets[depth]]

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

    The level index is not built here; see :class:`DecodeTree`.
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
    )


def _group_by_depth(depths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return non-root node indexes sorted by depth plus per-depth offsets."""
    node_depths = depths[1:]
    counts = np.bincount(node_depths)[1:]
    max_depth = counts.size
    # NumPy's stable sort is a radix sort on 8- and 16-bit keys, i.e. one
    # counting pass per key byte; depths beyond 16 bits keep the wide key.
    if max_depth <= np.iinfo(np.uint8).max:
        node_depths = node_depths.astype(np.uint8)
    elif max_depth <= np.iinfo(np.uint16).max:
        node_depths = node_depths.astype(np.uint16)
    order = np.argsort(node_depths, kind="stable")
    order += 1
    offsets = np.zeros(max_depth + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return order, offsets
