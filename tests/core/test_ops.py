"""Correctness of the compressed matrix operations (Theorems 1-4, Algorithms 3-8).

Every compressed kernel is compared against the plain NumPy computation on
the decoded dense matrix, on hand-picked edge cases and on hypothesis-drawn
matrices — this is the executable version of the paper's correctness proofs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import ops
from repro.core.decode_tree import build_decode_tree
from repro.core.logical import prefix_tree_encode
from repro.core.sparse import sparse_encode
from tests.conftest import random_sparse_matrix


def _encode(dense: np.ndarray):
    encoding = prefix_tree_encode(sparse_encode(dense))
    return encoding


def _tree(dense: np.ndarray):
    return build_decode_tree(_encode(dense))


_SPARSE_ELEMENTS = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5, -1.5, 4.0])
_MATRICES = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=14),
    elements=_SPARSE_ELEMENTS,
)


class TestSparseSafeOps:
    def test_scale(self, census_batch):
        encoding = _encode(census_batch)
        scaled = ops.matrix_times_scalar(encoding, 3.5)
        assert np.allclose(ops.decode_to_dense(build_decode_tree(scaled)), census_batch * 3.5)

    def test_scale_by_zero_keeps_structure(self, census_batch):
        encoding = _encode(census_batch)
        scaled = ops.matrix_times_scalar(encoding, 0.0)
        dense = ops.decode_to_dense(build_decode_tree(scaled))
        assert np.allclose(dense, np.zeros_like(census_batch))

    def test_power(self, census_batch):
        encoding = _encode(census_batch)
        squared = ops.matrix_elementwise_power(encoding, 2.0)
        assert np.allclose(ops.decode_to_dense(build_decode_tree(squared)), census_batch**2)

    def test_power_rejects_nonpositive_exponent(self, census_batch):
        encoding = _encode(census_batch)
        with pytest.raises(ValueError):
            ops.matrix_elementwise_power(encoding, 0.0)

    def test_apply_sparse_safe(self, census_batch):
        encoding = _encode(census_batch)
        result = ops.matrix_apply_sparse_safe(encoding, np.abs)
        assert np.allclose(ops.decode_to_dense(build_decode_tree(result)), np.abs(census_batch))


class TestRightMultiplication:
    def test_matvec_matches_dense(self, census_batch, rng):
        tree = _tree(census_batch)
        v = rng.normal(size=census_batch.shape[1])
        np.testing.assert_allclose(
            ops.matrix_times_vector(tree, v), census_batch @ v, rtol=1e-10
        )

    def test_matvec_zero_matrix(self):
        dense = np.zeros((3, 4))
        tree = _tree(dense)
        assert np.array_equal(ops.matrix_times_vector(tree, np.ones(4)), np.zeros(3))

    def test_matvec_with_empty_rows(self):
        dense = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
        tree = _tree(dense)
        v = np.array([2.0, -1.0])
        np.testing.assert_allclose(ops.matrix_times_vector(tree, v), dense @ v)

    def test_matvec_wrong_length_rejected(self, census_batch):
        tree = _tree(census_batch)
        with pytest.raises(ValueError):
            ops.matrix_times_vector(tree, np.ones(3))

    def test_matmat_matches_dense(self, census_batch, rng):
        tree = _tree(census_batch)
        m = rng.normal(size=(census_batch.shape[1], 7))
        np.testing.assert_allclose(
            ops.matrix_times_matrix(tree, m), census_batch @ m, rtol=1e-10
        )

    def test_matmat_single_column(self, census_batch, rng):
        tree = _tree(census_batch)
        m = rng.normal(size=(census_batch.shape[1], 1))
        np.testing.assert_allclose(
            ops.matrix_times_matrix(tree, m), census_batch @ m, rtol=1e-10
        )

    def test_matmat_wrong_shape_rejected(self, census_batch):
        tree = _tree(census_batch)
        with pytest.raises(ValueError):
            ops.matrix_times_matrix(tree, np.ones((3, 2)))

    def test_reusing_prebuilt_tree(self, census_batch, rng):
        encoding = _encode(census_batch)
        tree = build_decode_tree(encoding)
        v = rng.normal(size=census_batch.shape[1])
        np.testing.assert_allclose(
            ops.matrix_times_vector(tree, v), census_batch @ v, rtol=1e-10
        )


class TestLeftMultiplication:
    def test_rmatvec_matches_dense(self, census_batch, rng):
        tree = _tree(census_batch)
        v = rng.normal(size=census_batch.shape[0])
        np.testing.assert_allclose(
            ops.vector_times_matrix(tree, v), v @ census_batch, rtol=1e-10
        )

    def test_rmatvec_zero_matrix(self):
        dense = np.zeros((3, 4))
        tree = _tree(dense)
        assert np.array_equal(ops.vector_times_matrix(tree, np.ones(3)), np.zeros(4))

    def test_rmatvec_with_empty_rows(self):
        dense = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
        tree = _tree(dense)
        v = np.array([1.0, 5.0, -2.0])
        np.testing.assert_allclose(ops.vector_times_matrix(tree, v), v @ dense)

    def test_rmatvec_wrong_length_rejected(self, census_batch):
        tree = _tree(census_batch)
        with pytest.raises(ValueError):
            ops.vector_times_matrix(tree, np.ones(3))

    def test_rmatmat_matches_dense(self, census_batch, rng):
        tree = _tree(census_batch)
        m = rng.normal(size=(5, census_batch.shape[0]))
        np.testing.assert_allclose(
            ops.uncompressed_matrix_times_matrix(tree, m), m @ census_batch, rtol=1e-10
        )

    def test_rmatmat_single_row(self, census_batch, rng):
        tree = _tree(census_batch)
        m = rng.normal(size=(1, census_batch.shape[0]))
        np.testing.assert_allclose(
            ops.uncompressed_matrix_times_matrix(tree, m), m @ census_batch, rtol=1e-10
        )

    def test_rmatmat_wrong_shape_rejected(self, census_batch):
        tree = _tree(census_batch)
        with pytest.raises(ValueError):
            ops.uncompressed_matrix_times_matrix(tree, np.ones((2, 3)))


class TestSparseUnsafeOps:
    def test_add_scalar(self, census_batch):
        tree = _tree(census_batch)
        np.testing.assert_allclose(
            ops.matrix_plus_scalar(tree, 2.5), census_batch + 2.5
        )

    def test_add_matrix(self, census_batch, rng):
        tree = _tree(census_batch)
        other = rng.normal(size=census_batch.shape)
        np.testing.assert_allclose(
            ops.matrix_plus_matrix(tree, other), census_batch + other
        )

    def test_add_matrix_shape_mismatch_rejected(self, census_batch):
        tree = _tree(census_batch)
        with pytest.raises(ValueError):
            ops.matrix_plus_matrix(tree, np.ones((2, 2)))

    def test_decode_to_sparse_roundtrip(self, rng):
        dense = random_sparse_matrix(rng, 12, 9)
        tree = _tree(dense)
        sparse = ops.decode_to_sparse(tree)
        assert np.array_equal(
            ops.decode_to_dense(tree), dense
        )
        assert sparse.nnz == np.count_nonzero(dense)


class TestOpsProperties:
    """Hypothesis equivalence tests — the executable Theorems 1-4."""

    @given(dense=_MATRICES, seed=st.integers(0, 2**16))
    @settings(max_examples=75, deadline=None)
    def test_theorem1_matvec(self, dense, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=dense.shape[1])
        tree = _tree(dense)
        np.testing.assert_allclose(
            ops.matrix_times_vector(tree, v), dense @ v, rtol=1e-9, atol=1e-9
        )

    @given(dense=_MATRICES, seed=st.integers(0, 2**16))
    @settings(max_examples=75, deadline=None)
    def test_theorem2_rmatvec(self, dense, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=dense.shape[0])
        tree = _tree(dense)
        np.testing.assert_allclose(
            ops.vector_times_matrix(tree, v), v @ dense, rtol=1e-9, atol=1e-9
        )

    @given(dense=_MATRICES, seed=st.integers(0, 2**16), width=st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_theorem3_matmat(self, dense, seed, width):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dense.shape[1], width))
        tree = _tree(dense)
        np.testing.assert_allclose(
            ops.matrix_times_matrix(tree, m), dense @ m, rtol=1e-9, atol=1e-9
        )

    @given(dense=_MATRICES, seed=st.integers(0, 2**16), height=st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_theorem4_rmatmat(self, dense, seed, height):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(height, dense.shape[0]))
        tree = _tree(dense)
        np.testing.assert_allclose(
            ops.uncompressed_matrix_times_matrix(tree, m), m @ dense, rtol=1e-9, atol=1e-9
        )

    @given(dense=_MATRICES, scalar=st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_scale_property(self, dense, scalar):
        encoding = _encode(dense)
        scaled = ops.matrix_times_scalar(encoding, scalar)
        np.testing.assert_allclose(
            ops.decode_to_dense(build_decode_tree(scaled)), dense * scalar, rtol=1e-9, atol=1e-9
        )

    @given(dense=_MATRICES)
    @settings(max_examples=75, deadline=None)
    def test_decode_roundtrip_property(self, dense):
        tree = _tree(dense)
        assert np.array_equal(ops.decode_to_dense(tree), dense)
