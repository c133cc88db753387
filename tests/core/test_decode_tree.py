"""Tests for the decoding prefix tree C' (Algorithm 2).

:func:`build_decode_tree` keeps nothing in creation order: it goes straight
to the level-major :class:`DecodeTree`.  The oracle here is Algorithm 2 as
the paper states it, one node at a time in creation order
(:func:`node_order_tree`), and the tree the textbook Algorithm 1 built
(:func:`~tests.core.test_logical.reference_encode`'s ``PrefixTree``); the
built tree must be either of them, node for node, once renumbered by the
position permutation: a stable sort of the nodes by depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.decode_tree import DecodeTree, build_decode_tree
from repro.core.logical import LogicalEncoding, prefix_tree_encode
from repro.core.ops import decode_to_dense
from repro.core.sparse import sparse_encode
from repro.core.toc import TOCMatrix
from repro.core.validate import EncodingError
from repro.obs import metrics
from tests.conftest import random_sparse_matrix
from tests.core.test_logical import reference_encode


@dataclass(frozen=True)
class NodeOrderTree:
    """``C'`` in creation order: node ``i``'s key, parent, first pair (``F``) and depth."""

    key_columns: np.ndarray
    key_values: np.ndarray
    parents: np.ndarray
    first_columns: np.ndarray
    first_values: np.ndarray
    depths: np.ndarray

    def __len__(self) -> int:
        return int(self.parents.size)


def node_order_tree(encoding: LogicalEncoding) -> NodeOrderTree:
    """Algorithm 2 as the paper writes it: phase I seeds the first layer, phase
    II appends one node per code but the last of each row, whose parent is the
    code and whose key is the first pair of the following code's sequence."""
    cols = [0, *encoding.first_layer_columns.tolist()]
    vals = [0.0, *encoding.first_layer_values.tolist()]
    parents = [0] * len(cols)
    first = list(range(len(cols)))  # each node's depth-1 ancestor
    depths = [0] + [1] * (len(cols) - 1)
    codes, offsets = encoding.codes.tolist(), encoding.row_offsets.tolist()
    for start, end in zip(offsets, offsets[1:]):
        for code, following in zip(codes[start : end - 1], codes[start + 1 : end]):
            parents.append(code)
            first.append(first[code])
            depths.append(depths[code] + 1)
            # The following code may be the node just appended (the LZW corner case).
            cols.append(cols[first[following]])
            vals.append(vals[first[following]])
    return NodeOrderTree(
        key_columns=np.array(cols),
        key_values=np.array(vals),
        parents=np.array(parents),
        first_columns=np.array([cols[f] for f in first]),
        first_values=np.array([vals[f] for f in first]),
        depths=np.array(depths),
    )


def positions_of(depths) -> list[int]:
    """The position permutation: position -> node, by depth, ties in creation order."""
    depths = list(depths)
    return [0, *sorted(range(1, len(depths)), key=depths.__getitem__)]  # sorted() is stable


def assert_tree_is(tree: DecodeTree, encoding: LogicalEncoding, keys: list, parents: list[int]):
    """Every field of ``tree`` against a creation-order tree given as per-node key and parent.

    ``keys[0]`` (the root's) is ignored.  Depths and the level layout are
    derived here by walking the parents one node at a time.
    """
    n = len(parents)
    depths = [0]
    for node in range(1, n):
        depths.append(1 + depths[parents[node]])
    keys = [(0, 0.0), *keys[1:]]
    positions = positions_of(depths)
    rank = {node: position for position, node in enumerate(positions)}
    assert len(tree) == n
    assert tree.parents.tolist() == [rank[parents[node]] for node in positions]
    assert list(zip(tree.key_columns.tolist(), tree.key_values.tolist())) == [
        keys[node] for node in positions
    ]
    assert tree.codes.tolist() == [rank[code] for code in encoding.codes.tolist()]
    levels = [
        (1 + sum(d < depth for d in depths[1:]), 1 + sum(d <= depth for d in depths[1:]))
        for depth in range(1, max(depths) + 1)
    ]
    assert list(tree.levels) == levels
    assert tree.max_depth == max(depths)
    for (plo, phi), (lo, hi) in zip([(0, 1), *levels], levels):
        assert ((plo <= tree.parents[lo:hi]) & (tree.parents[lo:hi] < phi)).all()
        assert tree.level_parents[lo:hi].tolist() == (tree.parents[lo:hi] - plo).tolist()
    assert tree.shape == encoding.shape


def _encode(dense: np.ndarray):
    """The encoder's ``I`` and ``D``, and the tree textbook Algorithm 1 builds."""
    table = sparse_encode(dense)
    return prefix_tree_encode(table), reference_encode(table)[1]


def assert_matches_encoder_tree(dense: np.ndarray) -> None:
    encoding, enc_tree = _encode(dense)
    nodes = range(len(enc_tree))
    keys = [None, *(enc_tree.key(node) for node in nodes[1:])]
    parents = [enc_tree.parent(node) for node in nodes]
    assert_tree_is(build_decode_tree(encoding), encoding, keys, parents)
    oracle = node_order_tree(encoding)
    assert oracle.parents.tolist() == parents
    assert list(zip(oracle.key_columns.tolist()[1:], oracle.key_values.tolist()[1:])) == keys[1:]


class TestBuildDecodeTree:
    def test_matches_encoding_tree_sequences(self, rng):
        dense = random_sparse_matrix(rng, 20, 10)
        encoding, enc_tree = _encode(dense)
        tree = build_decode_tree(encoding)
        assert len(tree) == len(enc_tree)
        positions = positions_of(node_order_tree(encoding).depths)
        for position, node in enumerate(positions[1:], start=1):
            cols, vals = tree.sequence(position)
            assert list(zip(cols, vals)) == enc_tree.sequence(node)

    def test_depths_match_sequence_lengths(self, rng):
        dense = random_sparse_matrix(rng, 15, 8)
        encoding, enc_tree = _encode(dense)
        tree = build_decode_tree(encoding)
        oracle = node_order_tree(encoding)
        for node in range(1, len(oracle)):
            assert oracle.depths[node] == len(enc_tree.sequence(node))
        for depth, (lo, hi) in enumerate(tree.levels, start=1):
            assert all(len(tree.sequence(position)[0]) == depth for position in range(lo, hi))

    def test_first_pair_array_matches_sequences(self, rng):
        dense = random_sparse_matrix(rng, 15, 8)
        encoding, enc_tree = _encode(dense)
        oracle = node_order_tree(encoding)
        tree = build_decode_tree(encoding)
        positions = positions_of(oracle.depths)
        for position, node in enumerate(positions[1:], start=1):
            first_col, first_val = enc_tree.sequence(node)[0]
            assert oracle.first_columns[node] == first_col
            assert oracle.first_values[node] == first_val
            cols, vals = tree.sequence(position)
            assert (cols[0], vals[0]) == (first_col, first_val)

    def test_zero_matrix(self):
        encoding, _ = _encode(np.zeros((3, 3)))
        tree = build_decode_tree(encoding)
        assert len(tree) == 1  # only the root
        assert tree.levels == () and tree.max_depth == 0

    def test_lzw_corner_case_immediate_reference(self):
        # The classic LZW corner case: a node is referenced by the code right
        # after the one that created it.  With pairs, this happens when a row
        # repeats the same pair many times, e.g. [a, a, a, a]: encoding emits
        # [a], creates [a,a], then emits [a,a] (the node just created), ...
        dense = np.array([[2.0, 2.0, 2.0, 2.0, 2.0, 2.0]])
        # Same value in all columns is NOT the corner case (different column
        # indexes make different pairs); build it with repeated batches of an
        # identical row prefix instead.
        encoding, _ = _encode(np.tile(dense, (4, 1)))
        assert np.array_equal(decode_to_dense(build_decode_tree(encoding)), np.tile(dense, (4, 1)))

    def test_each_build_is_counted_and_timed(self, census_batch):
        builds = metrics.counter("core.decode_tree.builds")
        seconds = metrics.histogram("core.decode_tree.build_seconds")
        toc = TOCMatrix.decompress_bytes(TOCMatrix.compress(census_batch).to_bytes())
        before = builds.value, seconds.count
        # Every kernel runs on the one tree: the first op builds it, nothing else does.
        toc.matvec(np.ones(census_batch.shape[1]))
        toc.rmatvec(np.ones(census_batch.shape[0]))
        toc.matmat(np.ones((census_batch.shape[1], 2)))
        toc.rmatmat(np.ones((2, census_batch.shape[0])))
        toc.row_slice([0, 3])
        toc.columns([1])
        toc.to_sparse()
        assert (builds.value, seconds.count) == (before[0] + 1, before[1] + 1)

    def test_immediate_reference_to_the_node_being_created(self):
        # The corner case proper cannot come out of the encoder (a row never
        # repeats a column), so the codes are written by hand: each position
        # creates a node that the very next code references.
        encoding = LogicalEncoding(
            first_layer_columns=np.array([0]),
            first_layer_values=np.array([1.5]),
            codes=np.array([1, 2, 3]),
            row_offsets=np.array([0, 3]),
            shape=(1, 1),
        )
        assert_tree_is(
            build_decode_tree(encoding),
            encoding,
            [None, (0, 1.5), (0, 1.5), (0, 1.5)],
            [0, 0, 1, 2],
        )

    def test_deep_chain_crosses_the_one_byte_sort_key(self):
        # Identical rows lengthen the longest stored sequence by one pair per
        # row, so 260 of them push the depth past what a uint8 key can hold.
        dense = np.ones((260, 260))
        encoding, _ = _encode(dense)
        assert build_decode_tree(encoding).max_depth > 255
        assert_matches_encoder_tree(dense)

    @pytest.mark.parametrize("max_depth", [3, 255, 256, 65535, 65536])
    def test_layout_at_sort_key_boundaries(self, max_depth, rng):
        # One row of the LZW corner case makes a chain (node d at depth d);
        # each later two-code row hangs a node off a chain node above the
        # deepest, so the deepest level is the chain's last node.
        hang = rng.integers(1, max_depth, size=40)
        encoding = LogicalEncoding(
            first_layer_columns=np.array([0]),
            first_layer_values=np.array([1.5]),
            codes=np.concatenate((np.arange(1, max_depth + 1), np.c_[hang, hang].ravel())),
            row_offsets=np.concatenate(([0], max_depth + 2 * np.arange(hang.size + 1))),
            shape=(hang.size + 1, 1),
        )
        tree = build_decode_tree(encoding)
        depths = np.concatenate(([0], np.arange(1, max_depth + 1), hang + 1))
        positions = np.argsort(depths, kind="stable")
        rank = np.empty_like(positions)
        rank[positions] = np.arange(positions.size)
        parents = np.concatenate(([0, 0], np.arange(1, max_depth), hang))
        assert np.array_equal(tree.parents, rank[parents[positions]])
        assert np.array_equal(tree.codes, rank[encoding.codes])
        bounds = 1 + np.cumsum(np.bincount(depths[1:], minlength=max_depth + 1))
        assert tree.levels == tuple(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        starts = np.concatenate(([0, 0], bounds[:-2]))
        assert np.array_equal(tree.level_parents, tree.parents - starts[depths[positions]])

    @pytest.mark.parametrize(
        ("codes", "row_offsets"),
        [
            pytest.param([3, 1, 2], [0, 3], id="node-is-its-own-parent"),
            pytest.param([1, 4, 2], [0, 3], id="forward-reference"),
            pytest.param([1, 2, 9], [0, 3], id="code-out-of-range"),
            # A row of one code creates no node, so only the range check sees it.
            pytest.param([1, 2, 9], [0, 2, 3], id="code-out-of-range-alone-in-its-row"),
        ],
    )
    def test_corrupt_code_stream_raises_instead_of_hanging(self, codes, row_offsets):
        encoding = LogicalEncoding(
            first_layer_columns=np.array([0, 1]),
            first_layer_values=np.array([1.0, 2.0]),
            codes=np.array(codes),
            row_offsets=np.array(row_offsets),
            shape=(len(row_offsets) - 1, 2),
        )
        with pytest.raises(EncodingError):
            build_decode_tree(encoding)

    @pytest.mark.parametrize(
        ("values", "emitting"),
        [
            pytest.param([1.0, 2.0], slice(1, None), id="finite-keys-emit-every-node"),
            pytest.param([np.inf, 2.0], [1, 2, 3], id="inf-key-emits-the-reached-nodes"),
        ],
    )
    def test_emitting_is_decided_on_the_first_layer(self, values, emitting):
        # Row 0 creates node 3 = [(0, a), (1, b)]; row 1 is empty; row 2
        # references nodes 3 and 2 and creates node 4, which no row reaches.
        encoding = LogicalEncoding(
            first_layer_columns=np.array([0, 1]),
            first_layer_values=np.array(values),
            codes=np.array([1, 2, 3, 2]),
            row_offsets=np.array([0, 2, 2, 4]),
            shape=(3, 2),
        )
        tree = build_decode_tree(encoding)
        if isinstance(emitting, slice):
            assert tree.emitting == emitting
        else:
            assert tree.emitting.tolist() == emitting


class TestDecodeTreeProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.5]),
        )
    )
    @example(np.zeros((3, 4)))
    @example(np.array([[1.0, 0.0, 2.0, 3.5]]))
    @example(np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]))
    @example(np.tile([2.0, 2.0, 0.0, 3.5, 1.0, 1.0], (5, 1)))
    @settings(max_examples=75, deadline=None)
    def test_rebuilt_tree_always_matches_encoder_tree(self, dense):
        assert_matches_encoder_tree(dense)
