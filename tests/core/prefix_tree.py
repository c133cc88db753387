"""The encoding prefix tree ``C`` (Section 3.1.1 of the paper).

Every node except the root stores a column-index:value pair as its key and
represents the sequence of pairs spelled out on the path from the root.
The tree exposes the two APIs the paper defines:

* ``AddNode(n, k)`` — add a child with key ``k`` under node ``n``; returns
  the new node's index (indices are assigned sequentially).
* ``GetIndex(n, k)`` — return the index of the child of ``n`` whose key is
  ``k``, or ``-1`` if no such child exists.

Storage is flat and integer-only.  Each distinct pair is interned once as a
*symbol* (1, 2, ... as first seen); a node is one entry in a parents list and
one in a symbols list, and the children of all nodes share ONE hash map keyed
``parent * stride + symbol`` — the paper's hash map from child key to child
index, without a map or a tuple per node.  Algorithm 1
(:func:`repro.core.logical.prefix_tree_encode`) keeps only that hash map, in
local variables, and returns no tree.  This class is the paper's structure,
which only the tests use: the textbook encoder
(:func:`tests.core.test_logical.reference_encode`) builds it call by call, as
the oracle the real encoder is checked against.
"""

from __future__ import annotations

import struct

ROOT_INDEX = 0
NOT_FOUND = -1


def _pair_key(column: int, value: float) -> tuple[int, bytes]:
    """A pair's identity: its column and the IEEE-754 *bits* of its value.

    ``2`` and ``2.0`` are one pair and a NaN equals itself — under float
    equality every NaN seen would be a new pair that no lookup finds.
    """
    return int(column), struct.pack("<d", value)


class PrefixTree:
    """Prefix tree used while encoding (root has index 0 and no key)."""

    def __init__(self) -> None:
        # Symbols are < stride; interning one more pair raises ValueError.
        self._stride = 1 << 32
        # Indexed by symbol.  Symbol 0 is "no pair" — what the root stores.
        self._columns: list[int | None] = [None]
        self._values: list[float | None] = [None]
        # Indexed by node.  The root is its own parent by convention.
        self._parents: list[int] = [ROOT_INDEX]
        self._symbols: list[int] = [0]
        self._children: dict[int, int] = {}
        self._symbol_of: dict[tuple[int, bytes], int] = {}

    def __len__(self) -> int:
        return len(self._parents)

    def add_node(self, parent: int, key: tuple[int, float]) -> int:
        """Create a child of ``parent`` with ``key``; return its index."""
        if not 0 <= parent < len(self._parents):
            raise IndexError(f"no node {parent} to add a child to")
        pair = _pair_key(*key)
        symbol = self._symbol_of.get(pair)
        if symbol is None:
            symbol = len(self._columns)
            if symbol >= self._stride:
                raise ValueError(f"the tree holds at most {self._stride - 1} distinct pairs")
            self._symbol_of[pair] = symbol
            self._columns.append(pair[0])
            self._values.append(float(key[1]))
        index = len(self._parents)
        self._parents.append(parent)
        self._symbols.append(symbol)
        self._children[parent * self._stride + symbol] = index
        return index

    def get_index(self, parent: int, key: tuple[int, float]) -> int:
        """Return the index of ``parent``'s child keyed by ``key`` or ``-1``."""
        symbol = self._symbol_of.get(_pair_key(*key), 0)  # no node holds symbol 0
        return self._children.get(parent * self._stride + symbol, NOT_FOUND)

    def key(self, index: int) -> tuple[int, float]:
        """Return the key (column, value) stored at ``index``."""
        if index == ROOT_INDEX:
            raise ValueError("the root node has no key")
        symbol = self._symbols[index]
        return self._columns[symbol], self._values[symbol]

    def parent(self, index: int) -> int:
        """Return the parent index of node ``index``."""
        return self._parents[index]

    def sequence(self, index: int) -> list[tuple[int, float]]:
        """Return the pair sequence represented by node ``index`` (root→node)."""
        path: list[tuple[int, float]] = []
        node = index
        while node != ROOT_INDEX:
            path.append(self.key(node))
            node = self._parents[node]
        path.reverse()
        return path

    def first_layer(self) -> list[tuple[int, float]]:
        """Return the keys of the root's children ordered by node index.

        This is the ``I`` output of the paper's Figure 3: because phase I of
        Algorithm 1 inserts every unique pair before any deeper node is
        created, the root's children always occupy indices ``1..len(I)``.
        """
        keys: list[tuple[int, float]] = []
        for index in range(1, len(self._parents)):
            if self._parents[index] != ROOT_INDEX:
                break
            keys.append(self.key(index))
        return keys

    def depth(self, index: int) -> int:
        """Length of the sequence represented by node ``index``."""
        depth = 0
        node = index
        while node != ROOT_INDEX:
            depth += 1
            node = self._parents[node]
        return depth
