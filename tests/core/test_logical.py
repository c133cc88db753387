"""Tests for the prefix-tree encoding algorithm (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.logical import LogicalEncoding, logical_decode, prefix_tree_encode
from repro.core.sparse import sparse_decode, sparse_encode
from tests.conftest import random_sparse_matrix


def _roundtrip(dense: np.ndarray) -> np.ndarray:
    encoding, _ = prefix_tree_encode(sparse_encode(dense))
    return sparse_decode(logical_decode(encoding))


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
        encoding, _ = prefix_tree_encode(sparse_encode(dense))
        last_row_codes = encoding.row_codes(encoding.n_rows - 1)
        assert last_row_codes.size <= 2

    def test_codes_never_reference_root(self, rng):
        dense = random_sparse_matrix(rng, 15, 10)
        encoding, _ = prefix_tree_encode(sparse_encode(dense))
        assert encoding.codes.size == 0 or encoding.codes.min() >= 1

    def test_first_layer_holds_all_unique_pairs(self, rng):
        dense = random_sparse_matrix(rng, 12, 6)
        table = sparse_encode(dense)
        encoding, _ = prefix_tree_encode(table)
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
        encoding, _ = prefix_tree_encode(table)
        assert encoding.n_codes <= table.nnz

    def test_encoding_is_deterministic(self, census_batch):
        first, _ = prefix_tree_encode(sparse_encode(census_batch))
        second, _ = prefix_tree_encode(sparse_encode(census_batch))
        assert np.array_equal(first.codes, second.codes)
        assert np.array_equal(first.first_layer_values, second.first_layer_values)

    def test_tree_node_count_matches_formula(self, rng):
        # |C'| (non-root) = |I| + |D| - number of non-empty rows.
        dense = random_sparse_matrix(rng, 18, 9)
        encoding, tree = prefix_tree_encode(sparse_encode(dense))
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
        zeros, _ = prefix_tree_encode(sparse_encode(np.zeros((3, 2))))
        assert zeros.n_tree_nodes == 0


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
            elements=st.sampled_from([0.0, 0.0, 1.0, 2.5, -3.0]),
        )
    )
    @settings(max_examples=75, deadline=None)
    def test_roundtrip_property(self, dense):
        assert np.array_equal(_roundtrip(dense), dense)

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
        encoding, _ = prefix_tree_encode(table)
        assert encoding.n_codes <= max(table.nnz, 0)
