"""Tests for the prefix-tree encoding algorithm (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.decode_tree import build_decode_tree
from repro.core.logical import LogicalEncoding, prefix_tree_encode
from repro.core.ops import decode_to_sparse
from repro.core.prefix_tree import NOT_FOUND, ROOT_INDEX, PrefixTree
from repro.core.sparse import SparseEncodedTable, sparse_decode, sparse_encode
from repro.data.registry import DATASET_PROFILES
from tests.conftest import random_sparse_matrix

#: Cell values for the property tests: repeats, and every float that breaks
#: "a value equals itself" or "a value is its own bit pattern".
CELLS = st.sampled_from(
    [0.0, 0.0, 1.0, 2.5, -3.0, float("nan"), float("inf"), float("-inf"), 5e-324, -0.0]
)


def _roundtrip(dense: np.ndarray) -> np.ndarray:
    encoding = prefix_tree_encode(sparse_encode(dense))
    return sparse_decode(decode_to_sparse(build_decode_tree(encoding)))


def reference_encode(table: SparseEncodedTable) -> tuple[LogicalEncoding, PrefixTree]:
    """Algorithm 1 as the paper writes it, over ``AddNode``/``GetIndex``.

    The oracle for :func:`prefix_tree_encode`: one tree call per pair, no
    symbols, no shared storage.
    """
    tree = PrefixTree()
    pairs = list(zip(table.columns.tolist(), table.values.tolist()))

    # Phase I: every unique pair becomes a child of the root.
    for pair in pairs:
        if tree.get_index(ROOT_INDEX, pair) == NOT_FOUND:
            tree.add_node(ROOT_INDEX, pair)
    first_layer = tree.first_layer()

    # Phase II: per tuple, emit the longest match and extend it by one pair.
    codes: list[int] = []
    row_offsets = [0]
    for start, end in zip(table.row_offsets.tolist(), table.row_offsets.tolist()[1:]):
        i = start
        while i < end:
            node = tree.get_index(ROOT_INDEX, pairs[i])
            j = i + 1
            while j < end and (child := tree.get_index(node, pairs[j])) != NOT_FOUND:
                node = child
                j += 1
            codes.append(node)
            if j < end:
                tree.add_node(node, pairs[j])
            i = j
        row_offsets.append(len(codes))

    encoding = LogicalEncoding(
        first_layer_columns=np.array([col for col, _ in first_layer], dtype=np.int64),
        first_layer_values=np.array([val for _, val in first_layer], dtype=np.float64),
        codes=np.asarray(codes, dtype=np.int64),
        row_offsets=np.asarray(row_offsets, dtype=np.int64),
        shape=table.shape,
    )
    return encoding, tree


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def assert_identical_to_reference(dense: np.ndarray) -> None:
    """Code for code, pair for pair (values by their bits), node for node.

    The encoder keeps no tree, so the node-for-node check compares the tree
    Algorithm 2 rebuilds from its ``I`` and ``D`` with the one the textbook
    Algorithm 1 built: the reader must see exactly the writer's tree.
    """
    table = sparse_encode(dense)
    fast = prefix_tree_encode(table)
    ref, ref_tree = reference_encode(table)
    assert fast.shape == ref.shape
    assert fast.codes.dtype == ref.codes.dtype and fast.codes.tolist() == ref.codes.tolist()
    assert fast.row_offsets.tolist() == ref.row_offsets.tolist()
    assert fast.first_layer_columns.tolist() == ref.first_layer_columns.tolist()
    assert _bits(fast.first_layer_values) == _bits(ref.first_layer_values)
    # Imported here: that module imports this one's reference_encode.
    from tests.core.test_decode_tree import node_order_tree, positions_of

    rebuilt = build_decode_tree(fast)
    assert len(rebuilt) == len(ref_tree) == fast.n_tree_nodes + 1
    nodes = range(1, len(ref_tree))
    oracle = node_order_tree(fast)
    assert oracle.parents[1:].tolist() == [ref_tree.parent(n) for n in nodes]
    ref_keys = [ref_tree.key(n) for n in nodes]
    assert oracle.key_columns[1:].tolist() == [col for col, _ in ref_keys]
    assert _bits(oracle.key_values[1:]) == _bits([val for _, val in ref_keys])
    # The built tree is the oracle's, renumbered by the position permutation.
    positions = positions_of(oracle.depths)
    assert rebuilt.key_columns.tolist() == oracle.key_columns[positions].tolist()
    assert _bits(rebuilt.key_values) == _bits(oracle.key_values[positions])
    rank = np.argsort(positions)
    assert rebuilt.parents.tolist() == rank[oracle.parents[positions]].tolist()


class TestPrefixTreeEncode:
    def test_roundtrip_random(self, rng):
        dense = random_sparse_matrix(rng, 20, 12)
        assert np.array_equal(_roundtrip(dense), dense)

    def test_roundtrip_zero_matrix(self):
        dense = np.zeros((4, 5))
        assert np.array_equal(_roundtrip(dense), dense)

    def test_roundtrip_single_row(self):
        dense = np.array([[1.0, 0.0, 2.0, 2.0]])
        assert np.array_equal(_roundtrip(dense), dense)

    def test_roundtrip_single_cell(self):
        dense = np.array([[7.0]])
        assert np.array_equal(_roundtrip(dense), dense)

    def test_identical_rows_compress_to_single_codes(self):
        # After the tree warms up, a row identical to a previous one is
        # encoded with very few codes (eventually one).
        row = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        dense = np.tile(row, (10, 1))
        encoding = prefix_tree_encode(sparse_encode(dense))
        last_row_codes = encoding.row_codes(encoding.n_rows - 1)
        assert last_row_codes.size <= 2

    def test_codes_never_reference_root(self, rng):
        dense = random_sparse_matrix(rng, 15, 10)
        encoding = prefix_tree_encode(sparse_encode(dense))
        assert encoding.codes.size == 0 or encoding.codes.min() >= 1

    def test_first_layer_holds_all_unique_pairs(self, rng):
        dense = random_sparse_matrix(rng, 12, 6)
        table = sparse_encode(dense)
        encoding = prefix_tree_encode(table)
        expected = {
            (int(c), float(v)) for c, v in zip(table.columns.tolist(), table.values.tolist())
        }
        got = set(
            zip(encoding.first_layer_columns.tolist(), encoding.first_layer_values.tolist())
        )
        assert got == expected

    def test_number_of_codes_never_exceeds_pairs(self, rng):
        dense = random_sparse_matrix(rng, 25, 10)
        table = sparse_encode(dense)
        encoding = prefix_tree_encode(table)
        assert encoding.n_codes <= table.nnz

    def test_encoding_is_deterministic(self, census_batch):
        first = prefix_tree_encode(sparse_encode(census_batch))
        second = prefix_tree_encode(sparse_encode(census_batch))
        assert np.array_equal(first.codes, second.codes)
        assert np.array_equal(first.first_layer_values, second.first_layer_values)

    def test_tree_node_count_matches_formula(self, rng):
        # |C'| (non-root) = |I| + |D| - number of non-empty rows.
        table = sparse_encode(random_sparse_matrix(rng, 18, 9))
        encoding = prefix_tree_encode(table)
        _, tree = reference_encode(table)
        non_empty = sum(1 for codes in encoding.iter_rows() if codes.size)
        assert len(tree) - 1 == encoding.n_first_layer + encoding.n_codes - non_empty
        assert encoding.n_tree_nodes == len(tree) - 1

    def test_tree_node_count_with_only_empty_rows(self):
        # No row holds a code, so nothing is skipped and nothing is created.
        encoding = LogicalEncoding(
            first_layer_columns=np.array([0, 1]),
            first_layer_values=np.array([1.0, 2.0]),
            codes=np.array([], dtype=np.int64),
            row_offsets=np.zeros(4, dtype=np.int64),
            shape=(3, 2),
        )
        assert encoding.n_tree_nodes == encoding.n_first_layer == 2
        zeros = prefix_tree_encode(sparse_encode(np.zeros((3, 2))))
        assert zeros.n_tree_nodes == 0


class TestIdenticalToReference:
    @pytest.mark.parametrize("profile", sorted(DATASET_PROFILES))
    def test_every_dataset_profile(self, profile):
        assert_identical_to_reference(DATASET_PROFILES[profile].matrix(100, seed=11))

    def test_paper_example(self, paper_matrix):
        assert_identical_to_reference(paper_matrix)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4, 5)])
    def test_no_pairs_at_all(self, shape):
        assert_identical_to_reference(np.zeros(shape))

    def test_empty_rows_between_full_ones(self):
        dense = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        assert_identical_to_reference(dense)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16),
            elements=CELLS,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property(self, dense):
        assert_identical_to_reference(dense)

    def test_hand_built_table_with_both_zeros(self):
        # sparse_encode never stores a zero, but a table may: the two zeros
        # differ in their bits, so they are two pairs and come back as stored.
        table = SparseEncodedTable(
            columns=np.array([0, 0, 0, 0]),
            values=np.array([0.0, -0.0, 0.0, -0.0]),
            row_offsets=np.array([0, 1, 2, 3, 4]),
            shape=(4, 1),
        )
        encoding = prefix_tree_encode(table)
        assert encoding.n_first_layer == 2 and encoding.n_tree_nodes == 2
        assert _bits(decode_to_sparse(build_decode_tree(encoding)).values) == _bits(table.values)


class TestLogicalEncodingValidation:
    @pytest.mark.parametrize("row_offsets", [[1, 2, 3], [0, 3, 2, 3], [0, 1, 2]])
    def test_row_offsets_must_run_from_zero_to_the_code_count_in_order(self, row_offsets):
        with pytest.raises(ValueError):
            LogicalEncoding(
                first_layer_columns=np.array([0]),
                first_layer_values=np.array([1.0]),
                codes=np.array([1, 1, 1]),
                row_offsets=np.array(row_offsets),
                shape=(len(row_offsets) - 1, 2),
            )

    def test_row_offsets_must_match_rows(self):
        with pytest.raises(ValueError):
            LogicalEncoding(
                first_layer_columns=np.array([0]),
                first_layer_values=np.array([1.0]),
                codes=np.array([1]),
                row_offsets=np.array([0, 1]),
                shape=(2, 2),
            )

    def test_codes_must_not_reference_root(self):
        with pytest.raises(ValueError):
            LogicalEncoding(
                first_layer_columns=np.array([0]),
                first_layer_values=np.array([1.0]),
                codes=np.array([0]),
                row_offsets=np.array([0, 1]),
                shape=(1, 2),
            )

    def test_first_layer_alignment_enforced(self):
        with pytest.raises(ValueError):
            LogicalEncoding(
                first_layer_columns=np.array([0, 1]),
                first_layer_values=np.array([1.0]),
                codes=np.array([1]),
                row_offsets=np.array([0, 1]),
                shape=(1, 2),
            )


class TestLogicalProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16),
            elements=CELLS,
        )
    )
    @settings(max_examples=75, deadline=None)
    def test_roundtrip_property(self, dense):
        # -0.0 is a zero to sparse_encode and comes back +0.0, which compares equal.
        assert np.array_equal(_roundtrip(dense), dense, equal_nan=True)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=12),
            elements=st.sampled_from([0.0, 1.0, 2.0]),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_compression_never_expands_code_count(self, dense):
        table = sparse_encode(dense)
        encoding = prefix_tree_encode(table)
        assert encoding.n_codes <= max(table.nnz, 0)
