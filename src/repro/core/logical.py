"""Logical encoding — the prefix-tree encoding algorithm (Algorithm 1).

The sparse-encoded table is compressed by detecting sequences of
column-index:value pairs that repeat across rows.  Sequences are stored in a
prefix tree shared by all rows; each row is rewritten as a vector of indexes
pointing at prefix-tree nodes.  Only the encoded table ``D`` and the first
layer of the tree ``I`` need to be kept: the full tree can be rebuilt from
them (Algorithm 2, see :mod:`repro.core.decode_tree`).

The algorithm differs from textbook LZW in the ways Table 3 of the paper
lists: the input is the sparse-encoded table rather than a byte stream, the
compression unit is a whole pair rather than a byte, the dictionary is
initialised with the unique pairs of the batch, and row boundaries are
preserved because each tuple is encoded separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.prefix_tree import ROOT_INDEX, PrefixTree
from repro.core.sparse import SparseEncodedTable
from repro.core.validate import EncodingError


@dataclass(frozen=True)
class LogicalEncoding:
    """The output of logical encoding.

    Attributes
    ----------
    first_layer_columns, first_layer_values:
        The column indexes / values of the unique pairs that form the first
        layer of the prefix tree (``I`` in the paper).  Node ``i + 1`` of the
        tree stores pair ``(first_layer_columns[i], first_layer_values[i])``.
    codes:
        Flat array of prefix-tree node indexes for all rows (``D`` in the
        paper), row-major.
    row_offsets:
        ``row_offsets[i]:row_offsets[i + 1]`` slices out row ``i``'s codes.
    shape:
        Shape of the original dense matrix.
    """

    first_layer_columns: np.ndarray
    first_layer_values: np.ndarray
    codes: np.ndarray
    row_offsets: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        if self.first_layer_columns.size != self.first_layer_values.size:
            raise EncodingError("first-layer columns and values must align")
        if self.row_offsets.size != self.shape[0] + 1:
            raise EncodingError("row_offsets must have exactly one more entry than rows")
        if int(self.row_offsets[0]) != 0 or int(self.row_offsets[-1]) != self.codes.size:
            raise EncodingError("row_offsets must run from 0 to the number of codes")
        if (self.row_offsets[1:] < self.row_offsets[:-1]).any():
            raise EncodingError("row_offsets must be non-decreasing")
        if self.codes.size and self.codes.min() < 1:
            raise EncodingError("codes must reference non-root tree nodes (index >= 1)")

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def n_first_layer(self) -> int:
        """Number of unique pairs, i.e. size of ``I``."""
        return int(self.first_layer_columns.size)

    @property
    def n_codes(self) -> int:
        """Total number of tree-node references in the encoded table ``D``."""
        return int(self.codes.size)

    @property
    def n_tree_nodes(self) -> int:
        """Number of non-root nodes in the rebuilt decoding tree ``C'``.

        Algorithm 1 adds one node per code except for the last code of each
        row, so ``|C'| = |I| + |D| - n_rows`` plus the root.
        """
        nonempty_rows = int(np.count_nonzero(np.diff(self.row_offsets)))
        return self.n_first_layer + self.n_codes - nonempty_rows

    def row_codes(self, row: int) -> np.ndarray:
        """Return the tree-node indexes encoding ``row``."""
        start, end = int(self.row_offsets[row]), int(self.row_offsets[row + 1])
        return self.codes[start:end]

    def iter_rows(self):
        """Yield the code vector of each row in order."""
        for row in range(self.n_rows):
            yield self.row_codes(row)


def prefix_tree_encode(table: SparseEncodedTable) -> tuple[LogicalEncoding, PrefixTree]:
    """Run Algorithm 1 on a sparse-encoded table.

    Returns the logical encoding (``I`` + ``D``) and the full prefix tree
    ``C`` built along the way (callers that only need the compressed output
    can discard the tree; it is returned for inspection and testing).

    Pairs are handled as integer *symbols*: symbol ``s`` is the ``s``-th
    distinct ``(column, value bits)`` pair in order of first appearance,
    which is also the index of the root child phase I gives that pair.  The
    textbook form over ``AddNode``/``GetIndex`` lives in
    ``tests/core/test_logical.py`` and must produce the same output.
    """
    # Phase I: every unique pair becomes a root child, whole-array.  Going
    # through the values' bits makes a NaN equal to itself.
    columns = np.asarray(table.columns, dtype=np.int64)
    values = np.ascontiguousarray(table.values, dtype=np.float64)
    unique_bits, value_ids = np.unique(values.view(np.uint64), return_inverse=True)
    _, first_seen, pair_ids = np.unique(
        columns * unique_bits.size + value_ids, return_index=True, return_inverse=True
    )
    by_appearance = np.argsort(first_seen, kind="stable")
    n_first = by_appearance.size
    symbol_of_pair = np.empty(n_first, dtype=np.int64)
    symbol_of_pair[by_appearance] = np.arange(1, n_first + 1)
    first_seen = first_seen[by_appearance]
    first_cols, first_vals = columns[first_seen], values[first_seen]

    # The tree's flat storage (see PrefixTree): nodes 1..n_first are the root's
    # children, node s holding symbol s.
    stride = n_first + 1
    parents = [ROOT_INDEX] * stride
    node_symbols = list(range(stride))
    children = dict(zip(range(1, stride), range(1, stride)))

    # Phase II: encode each tuple, extending the tree with every new
    # sequence discovered (one new node per emitted code except when the
    # match runs to the end of the tuple).
    symbols = symbol_of_pair[pair_ids].tolist()
    codes: list[int] = []
    code_offsets = [0]
    get_child = children.get
    next_node = stride
    i = 0
    for end in table.row_offsets.tolist()[1:]:
        while i < end:
            # The longest match from i: a root child is its own symbol, then
            # descend while the next pair is a child of the match so far.
            node = symbols[i]
            i += 1
            while i < end:
                symbol = symbols[i]
                key = node * stride + symbol
                child = get_child(key)
                if child is None:
                    children[key] = next_node
                    parents.append(node)
                    node_symbols.append(symbol)
                    next_node += 1
                    break
                node = child
                i += 1
            codes.append(node)
        code_offsets.append(len(codes))

    encoding = LogicalEncoding(
        first_layer_columns=first_cols,
        first_layer_values=first_vals,
        codes=np.asarray(codes, dtype=np.int64),
        row_offsets=np.asarray(code_offsets, dtype=np.int64),
        shape=table.shape,
    )
    tree = PrefixTree.from_flat(
        columns=[None, *first_cols.tolist()],
        values=[None, *first_vals.tolist()],
        parents=parents,
        symbols=node_symbols,
        children=children,
        stride=stride,
    )
    return encoding, tree
