"""Logical encoding — the prefix-tree encoding algorithm (Algorithm 1).

The sparse-encoded table is compressed by detecting sequences of
column-index:value pairs that repeat across rows.  Sequences are stored in a
prefix tree shared by all rows; each row is rewritten as a vector of indexes
pointing at prefix-tree nodes.  Only the encoded table ``D`` and the first
layer of the tree ``I`` need to be kept: the full tree can be rebuilt from
them (Algorithm 2, see :mod:`repro.core.decode_tree`), so the encoder keeps
nothing of the tree but the hash map its phase II looks children up in.

The algorithm differs from textbook LZW in the ways Table 3 of the paper
lists: the input is the sparse-encoded table rather than a byte stream, the
compression unit is a whole pair rather than a byte, the dictionary is
initialised with the unique pairs of the batch, and row boundaries are
preserved because each tuple is encoded separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitpack.value_index import first_appearance
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


def prefix_tree_encode(table: SparseEncodedTable) -> LogicalEncoding:
    """Run Algorithm 1 on a sparse-encoded table; return ``I`` and ``D``.

    Only what a shard keeps is built: the tree ``C`` lives as one hash map
    from ``state + symbol`` to the child's state and is dropped on return
    (the reader rebuilds ``C'`` from ``I`` and ``D``, Algorithm 2).

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
    first_values, value_ids = first_appearance(values.view(np.uint64))
    first, pair_ids = first_appearance((columns * first_values.size + value_ids).view(np.uint64))

    # Phase II: encode each tuple.  Node n is held as the state n * stride,
    # so a child's key is state + symbol; nodes 1..n_first are the root's
    # children, node s holding symbol s.  A miss adds the match extended by
    # one pair as the next node, emits the match and restarts at the pair.
    stride = first.size + 1
    symbols = (pair_ids + 1).tolist()
    children: dict[int, int] = {}
    get_child = children.get
    next_state = stride * stride
    states: list[int] = []
    emit = states.append
    code_offsets = [0]
    offsets = table.row_offsets.tolist()
    for start, end in zip(offsets, offsets[1:]):
        if start < end:
            state = symbols[start] * stride
            for symbol in symbols[start + 1 : end]:
                key = state + symbol
                child = get_child(key)
                if child is None:
                    children[key] = next_state
                    next_state += stride
                    emit(state)
                    state = symbol * stride
                else:
                    state = child
            emit(state)
        code_offsets.append(len(states))

    return LogicalEncoding(
        first_layer_columns=columns[first],
        first_layer_values=values[first],
        codes=np.asarray(states, dtype=np.int64) // stride,
        row_offsets=np.asarray(code_offsets, dtype=np.int64),
        shape=table.shape,
    )
