"""Tests for structural validation and failure injection on encoded artefacts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.logical import LogicalEncoding, prefix_tree_encode
from repro.core.sparse import SparseEncodedTable, sparse_encode
from repro.core.validate import (
    EncodingError,
    validate_logical,
    validate_roundtrip,
    validate_sparse,
)
from tests.conftest import random_sparse_matrix


class TestValidateSparse:
    def test_valid_encoding_passes(self, census_batch):
        validate_sparse(sparse_encode(census_batch))

    def test_zero_value_rejected(self):
        table = SparseEncodedTable(
            columns=np.array([0]),
            values=np.array([0.0]),
            row_offsets=np.array([0, 1]),
            shape=(1, 2),
        )
        with pytest.raises(EncodingError):
            validate_sparse(table)

    def test_unsorted_columns_rejected(self):
        table = SparseEncodedTable(
            columns=np.array([1, 0]),
            values=np.array([1.0, 2.0]),
            row_offsets=np.array([0, 2]),
            shape=(1, 2),
        )
        with pytest.raises(EncodingError):
            validate_sparse(table)


class TestValidateLogical:
    def test_valid_encoding_passes(self, census_batch):
        encoding = prefix_tree_encode(sparse_encode(census_batch))
        validate_logical(encoding)

    def test_duplicate_first_layer_rejected(self):
        encoding = LogicalEncoding(
            first_layer_columns=np.array([0, 0]),
            first_layer_values=np.array([1.0, 1.0]),
            codes=np.array([1, 2]),
            row_offsets=np.array([0, 2]),
            shape=(1, 2),
        )
        with pytest.raises(EncodingError):
            validate_logical(encoding)

    def test_zero_value_in_first_layer_rejected(self):
        encoding = LogicalEncoding(
            first_layer_columns=np.array([0]),
            first_layer_values=np.array([0.0]),
            codes=np.array([1]),
            row_offsets=np.array([0, 1]),
            shape=(1, 1),
        )
        with pytest.raises(EncodingError):
            validate_logical(encoding)

    def test_out_of_range_first_layer_column_rejected(self):
        encoding = LogicalEncoding(
            first_layer_columns=np.array([5]),
            first_layer_values=np.array([1.0]),
            codes=np.array([1]),
            row_offsets=np.array([0, 1]),
            shape=(1, 2),
        )
        with pytest.raises(EncodingError):
            validate_logical(encoding)

    def test_corrupted_code_rejected(self, census_batch):
        encoding = prefix_tree_encode(sparse_encode(census_batch))
        corrupted = LogicalEncoding(
            first_layer_columns=encoding.first_layer_columns,
            first_layer_values=encoding.first_layer_values,
            codes=np.where(
                np.arange(encoding.codes.size) == 0,
                encoding.n_tree_nodes + 50,
                encoding.codes,
            ),
            row_offsets=encoding.row_offsets,
            shape=encoding.shape,
        )
        with pytest.raises(EncodingError):
            validate_logical(corrupted)


class TestValidateRoundtrip:
    def test_roundtrip_on_random_matrices(self, rng):
        for _ in range(5):
            validate_roundtrip(random_sparse_matrix(rng, 10, 8))

    def test_roundtrip_on_paper_example(self, paper_matrix):
        validate_roundtrip(paper_matrix)
