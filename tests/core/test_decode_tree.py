"""Tests for the decoding prefix tree C' (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.decode_tree import DecodeTree, build_decode_tree
from repro.core.logical import LogicalEncoding, prefix_tree_encode
from repro.core.sparse import sparse_encode
from repro.core.validate import EncodingError
from repro.obs import metrics
from tests.conftest import random_sparse_matrix
from tests.core.test_logical import reference_encode


#: An encoding with no rows, for trees written out by hand.
_NO_CODES = LogicalEncoding(
    first_layer_columns=np.zeros(0, dtype=np.int64),
    first_layer_values=np.zeros(0),
    codes=np.zeros(0, dtype=np.int64),
    row_offsets=np.zeros(1, dtype=np.int64),
    shape=(0, 1),
)


def _encode(dense: np.ndarray):
    """The encoder's ``I`` and ``D``, and the tree textbook Algorithm 1 builds."""
    table = sparse_encode(dense)
    return prefix_tree_encode(table), reference_encode(table)[1]


def _assert_same_tree(ctree: DecodeTree, keys: list, parents: list[int]) -> None:
    """Every field of ``ctree`` against a tree given as per-node key and parent.

    ``keys[0]`` (the root's) is ignored.  First pairs, depths and the level
    layout are derived here by walking the parents one node at a time.
    """
    n = len(parents)
    firsts, depths = [(0, 0.0)], [0]
    for node in range(1, n):
        root_child = parents[node] == 0
        firsts.append(keys[node] if root_child else firsts[parents[node]])
        depths.append(1 + depths[parents[node]])
    keys = [(0, 0.0), *keys[1:]]
    assert len(ctree) == n
    assert ctree.parents.tolist() == parents
    assert list(zip(ctree.key_columns.tolist(), ctree.key_values.tolist())) == keys
    assert list(zip(ctree.first_columns.tolist(), ctree.first_values.tolist())) == firsts
    assert ctree.depths.tolist() == depths
    assert ctree.max_depth == max(depths)
    _assert_level_major(ctree, keys, parents, depths)


def _assert_level_major(ctree: DecodeTree, keys: list, parents: list[int], depths: list[int]):
    """The layout renumbers nodes by depth (ties in creation order), remapping everything."""
    # sorted() is stable, so ties stay in node-id order.
    positions = [0, *sorted(range(1, len(parents)), key=depths.__getitem__)]
    rank = {node: position for position, node in enumerate(positions)}
    layout = ctree.layout
    assert layout.parents.tolist() == [rank[parents[node]] for node in positions]
    assert list(zip(layout.key_columns.tolist()[1:], layout.key_values.tolist()[1:])) == [
        keys[node] for node in positions[1:]
    ]
    assert layout.codes.tolist() == [rank[code] for code in ctree.encoding.codes.tolist()]
    levels = [
        (1 + sum(d < depth for d in depths[1:]), 1 + sum(d <= depth for d in depths[1:]))
        for depth in range(1, max(depths) + 1)
    ]
    assert list(layout.levels) == levels
    for (plo, phi), (lo, hi) in zip([(0, 1), *levels], levels):
        assert ((plo <= layout.parents[lo:hi]) & (layout.parents[lo:hi] < phi)).all()


def _assert_matches_encoder_tree(dense: np.ndarray) -> None:
    encoding, enc_tree = _encode(dense)
    nodes = range(len(enc_tree))
    _assert_same_tree(
        build_decode_tree(encoding),
        [None, *(enc_tree.key(node) for node in nodes[1:])],
        [enc_tree.parent(node) for node in nodes],
    )


class TestBuildDecodeTree:
    def test_matches_encoding_tree_sequences(self, rng):
        dense = random_sparse_matrix(rng, 20, 10)
        encoding, enc_tree = _encode(dense)
        ctree = build_decode_tree(encoding)
        assert len(ctree) == len(enc_tree)
        for node in range(1, len(enc_tree)):
            cols, vals = ctree.sequence(node)
            assert list(zip(cols, vals)) == enc_tree.sequence(node)

    def test_depths_match_sequence_lengths(self, rng):
        dense = random_sparse_matrix(rng, 15, 8)
        encoding, enc_tree = _encode(dense)
        ctree = build_decode_tree(encoding)
        for node in range(1, len(ctree)):
            assert ctree.depths[node] == len(enc_tree.sequence(node))

    def test_first_pair_array_matches_sequences(self, rng):
        dense = random_sparse_matrix(rng, 15, 8)
        encoding, enc_tree = _encode(dense)
        ctree = build_decode_tree(encoding)
        for node in range(1, len(ctree)):
            first_col, first_val = enc_tree.sequence(node)[0]
            assert ctree.first_columns[node] == first_col
            assert ctree.first_values[node] == first_val

    def test_zero_matrix(self):
        encoding, _ = _encode(np.zeros((3, 3)))
        ctree = build_decode_tree(encoding)
        assert len(ctree) == 1  # only the root

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
        ctree = build_decode_tree(encoding)
        ctree.validate()
        from repro.core.ops import decode_to_dense

        assert np.array_equal(decode_to_dense(encoding), np.tile(dense, (4, 1)))

    def test_each_build_is_counted_and_timed(self, census_batch):
        encoding, _ = _encode(census_batch)
        builds = metrics.counter("core.decode_tree.builds")
        seconds = metrics.histogram("core.decode_tree.build_seconds")
        before = builds.value, seconds.count
        tree = build_decode_tree(encoding)
        tree.layout  # built on first use, not a second tree build
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
        _assert_same_tree(
            build_decode_tree(encoding), [None, (0, 1.5), (0, 1.5), (0, 1.5)], [0, 0, 1, 2]
        )

    def test_deep_chain_crosses_the_one_byte_sort_key(self):
        # Identical rows lengthen the longest stored sequence by one pair per
        # row, so 260 of them push the depth past what a uint8 key can hold.
        dense = np.ones((260, 260))
        encoding, _ = _encode(dense)
        assert build_decode_tree(encoding).max_depth > 255
        _assert_matches_encoder_tree(dense)

    @pytest.mark.parametrize("max_depth", [3, 255, 256, 65535, 65536])
    def test_layout_at_sort_key_boundaries(self, max_depth, rng):
        # Nodes 1..max_depth are a chain (node d at depth d); every later node
        # hangs off the chain node one level up, so node d-1 is its parent.
        depths = np.concatenate(
            ([0], np.arange(1, max_depth + 1), rng.integers(1, max_depth + 1, size=40))
        )
        parents = np.maximum(depths - 1, 0)
        zeros = np.zeros(depths.size)
        tree = DecodeTree(
            key_columns=zeros.astype(np.int64),
            key_values=zeros,
            parents=parents,
            first_columns=zeros.astype(np.int64),
            first_values=zeros,
            depths=depths,
            encoding=_NO_CODES,
        )
        positions = np.concatenate(([0], 1 + np.argsort(depths[1:], kind="stable")))
        rank = np.empty_like(positions)
        rank[positions] = np.arange(positions.size)
        layout = tree.layout
        assert np.array_equal(layout.parents, rank[parents[positions]])
        bounds = 1 + np.cumsum(np.bincount(depths[1:], minlength=max_depth + 1))
        assert layout.levels == tuple(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        assert (np.diff(depths[positions]) >= 0).all()

    @pytest.mark.parametrize(
        "codes",
        [
            pytest.param([3, 1, 2], id="node-is-its-own-parent"),
            pytest.param([1, 4, 2], id="forward-reference"),
            pytest.param([1, 2, 9], id="code-out-of-range"),
        ],
    )
    def test_corrupt_code_stream_raises_instead_of_hanging(self, codes):
        encoding = LogicalEncoding(
            first_layer_columns=np.array([0, 1]),
            first_layer_values=np.array([1.0, 2.0]),
            codes=np.array(codes),
            row_offsets=np.array([0, 3]),
            shape=(1, 2),
        )
        with pytest.raises(EncodingError):
            build_decode_tree(encoding)

    def test_validate_rejects_forward_parent(self):
        tree = DecodeTree(
            key_columns=np.array([0, 0, 1]),
            key_values=np.array([0.0, 1.0, 2.0]),
            parents=np.array([0, 2, 0]),
            first_columns=np.array([0, 0, 1]),
            first_values=np.array([0.0, 1.0, 2.0]),
            depths=np.array([0, 1, 1]),
            encoding=_NO_CODES,
        )
        with pytest.raises(ValueError):
            tree.validate()

    def test_validate_rejects_bad_root(self):
        tree = DecodeTree(
            key_columns=np.array([0, 0]),
            key_values=np.array([0.0, 1.0]),
            parents=np.array([1, 0]),
            first_columns=np.array([0, 0]),
            first_values=np.array([0.0, 1.0]),
            depths=np.array([0, 1]),
            encoding=_NO_CODES,
        )
        with pytest.raises(ValueError):
            tree.validate()


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
        _assert_matches_encoder_tree(dense)
