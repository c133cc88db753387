"""Tests for sparse encoding (TOC step 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.registry import get_scheme
from repro.core.sparse import SparseEncodedTable, sparse_decode, sparse_encode
from tests.conftest import random_sparse_matrix


class TestSparseEncode:
    def test_zero_matrix(self):
        table = sparse_encode(np.zeros((3, 4)))
        assert table.nnz == 0
        assert np.array_equal(sparse_decode(table), np.zeros((3, 4)))

    def test_full_matrix(self):
        dense = np.arange(1, 13, dtype=np.float64).reshape(3, 4)
        table = sparse_encode(dense)
        assert table.nnz == 12
        assert np.array_equal(sparse_decode(table), dense)

    def test_single_row(self):
        dense = np.array([[0.0, 2.0, 0.0, 3.0]])
        table = sparse_encode(dense)
        cols, vals = table.row_pairs(0)
        assert cols.tolist() == [1, 3]
        assert vals.tolist() == [2.0, 3.0]

    def test_single_column(self):
        dense = np.array([[1.0], [0.0], [2.0]])
        table = sparse_encode(dense)
        assert table.nnz == 2
        assert np.array_equal(sparse_decode(table), dense)

    def test_negative_values_are_kept(self):
        dense = np.array([[-1.5, 0.0], [0.0, -2.0]])
        table = sparse_encode(dense)
        assert table.nnz == 2
        assert np.array_equal(sparse_decode(table), dense)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            sparse_encode(np.array([1.0, 2.0]))

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError):
            sparse_encode(np.zeros((2, 2, 2)))

    def test_row_offsets_are_cumulative_counts(self, rng):
        dense = random_sparse_matrix(rng, 10, 8)
        table = sparse_encode(dense)
        counts = np.count_nonzero(dense, axis=1)
        assert np.array_equal(np.diff(table.row_offsets), counts)

    def test_iter_rows_covers_all_pairs(self, rng):
        dense = random_sparse_matrix(rng, 6, 5)
        table = sparse_encode(dense)
        total = sum(cols.size for cols, _ in table.iter_rows())
        assert total == table.nnz

    def test_nbytes_layout(self, rng):
        # The TOC_SPARSE ablation stores the sparse encoding as CSR does: a
        # 24-byte header, then 4-byte offsets and columns, 8-byte values.
        dense = random_sparse_matrix(rng, 5, 5)
        table = sparse_encode(dense)
        expected = 24 + (table.n_rows + 1) * 4 + table.nnz * 4 + table.nnz * 8
        assert get_scheme("TOC_SPARSE").compress(dense).nbytes == expected


class TestSparseTableValidation:
    def test_mismatched_offsets_rejected(self):
        with pytest.raises(ValueError):
            SparseEncodedTable(
                columns=np.array([0]),
                values=np.array([1.0]),
                row_offsets=np.array([0, 1]),
                shape=(2, 2),
            )

    def test_mismatched_columns_values_rejected(self):
        with pytest.raises(ValueError):
            SparseEncodedTable(
                columns=np.array([0, 1]),
                values=np.array([1.0]),
                row_offsets=np.array([0, 2]),
                shape=(1, 2),
            )

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparseEncodedTable(
                columns=np.array([5]),
                values=np.array([1.0]),
                row_offsets=np.array([0, 1]),
                shape=(1, 2),
            )

    def test_bad_final_offset_rejected(self):
        with pytest.raises(ValueError):
            SparseEncodedTable(
                columns=np.array([0]),
                values=np.array([1.0]),
                row_offsets=np.array([0, 2]),
                shape=(1, 2),
            )


class TestSparseProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=20),
            elements=st.sampled_from([0.0, 0.0, 0.0, 1.5, -2.0, 3.25]),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, dense):
        assert np.array_equal(sparse_decode(sparse_encode(dense)), dense)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=15),
            elements=st.sampled_from([0.0, 1.0, 2.0]),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_nnz_matches_nonzero_count(self, dense):
        assert sparse_encode(dense).nnz == np.count_nonzero(dense)
