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

from repro.core.pairs import pair_key
from repro.core.prefix_tree import NOT_FOUND, ROOT_INDEX, PrefixTree
from repro.core.sparse import SparseEncodedTable


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
            raise ValueError("first-layer columns and values must align")
        if self.row_offsets.size != self.shape[0] + 1:
            raise ValueError("row_offsets must have exactly one more entry than rows")
        if int(self.row_offsets[0]) != 0 or int(self.row_offsets[-1]) != self.codes.size:
            raise ValueError("row_offsets must run from 0 to the number of codes")
        if (self.row_offsets[1:] < self.row_offsets[:-1]).any():
            raise ValueError("row_offsets must be non-decreasing")
        if self.codes.size and self.codes.min() < 1:
            raise ValueError("codes must reference non-root tree nodes (index >= 1)")

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
    """
    tree = PrefixTree()

    # Phase I: initialise the tree with every unique pair as a root child.
    pair_to_node: dict[tuple[int, float], int] = {}
    columns = table.columns
    values = table.values
    for col, val in zip(columns.tolist(), values.tolist()):
        key = pair_key(col, val)
        if key not in pair_to_node:
            pair_to_node[key] = tree.add_node(ROOT_INDEX, key)

    first_layer = tree.first_layer()
    first_cols = np.array([c for c, _ in first_layer], dtype=np.int64)
    first_vals = np.array([v for _, v in first_layer], dtype=np.float64)

    # Phase II: encode each tuple, extending the tree with every new
    # sequence discovered (one new node per emitted code except when the
    # match runs to the end of the tuple).
    codes: list[int] = []
    row_offsets = np.zeros(table.n_rows + 1, dtype=np.int64)
    for row in range(table.n_rows):
        start, end = int(table.row_offsets[row]), int(table.row_offsets[row + 1])
        row_cols = columns[start:end].tolist()
        row_vals = values[start:end].tolist()
        length = end - start
        i = 0
        while i < length:
            node, j = _longest_match_from_tree(row_cols, row_vals, i, tree)
            codes.append(node)
            if j < length:
                tree.add_node(node, pair_key(row_cols[j], row_vals[j]))
            i = j
        row_offsets[row + 1] = len(codes)

    encoding = LogicalEncoding(
        first_layer_columns=first_cols,
        first_layer_values=first_vals,
        codes=np.asarray(codes, dtype=np.int64),
        row_offsets=row_offsets,
        shape=table.shape,
    )
    return encoding, tree


def _longest_match_from_tree(
    row_cols: list[int], row_vals: list[float], start: int, tree: PrefixTree
) -> tuple[int, int]:
    """Find the longest tree sequence matching the tuple from ``start``.

    Returns ``(node, next_start)`` where ``node`` is the index of the deepest
    matching tree node and ``next_start`` is the position after the match.
    The match is always at least one pair long because phase I inserted every
    unique pair under the root.
    """
    length = len(row_cols)
    j = start
    candidate = tree.get_index(ROOT_INDEX, (row_cols[j], row_vals[j]))
    node = candidate
    while candidate != NOT_FOUND:
        node = candidate
        j += 1
        if j < length:
            candidate = tree.get_index(node, (row_cols[j], row_vals[j]))
        else:
            candidate = NOT_FOUND
    return node, j


def logical_decode(encoding: LogicalEncoding) -> SparseEncodedTable:
    """Rebuild the sparse-encoded table from a logical encoding.

    This is the decompression path; it is linear in the number of output
    pairs, mirroring LZW decoding.
    """
    from repro.core.decode_tree import build_decode_tree

    tree = build_decode_tree(encoding)
    columns: list[int] = []
    values: list[float] = []
    row_offsets = np.zeros(encoding.n_rows + 1, dtype=np.int64)
    for row in range(encoding.n_rows):
        for code in encoding.row_codes(row).tolist():
            seq_cols, seq_vals = tree.sequence(code)
            columns.extend(seq_cols)
            values.extend(seq_vals)
        row_offsets[row + 1] = len(columns)
    return SparseEncodedTable(
        columns=np.asarray(columns, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        row_offsets=row_offsets,
        shape=encoding.shape,
    )
