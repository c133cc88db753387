"""Tests for the unified kernel-dispatch execution layer."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import exec as kernels
from repro.compression.registry import available_schemes, get_scheme

ALL_SCHEMES = available_schemes(include_ablations=True)


@pytest.fixture()
def dense(rng):
    return rng.normal(size=(12, 8)) * (rng.random((12, 8)) < 0.5)


class TestRepresentationDispatch:
    def test_ndarray_passthrough(self, dense, rng):
        v = rng.normal(size=8)
        u = rng.normal(size=12)
        np.testing.assert_allclose(kernels.matvec(dense, v), dense @ v)
        np.testing.assert_allclose(kernels.rmatvec(dense, u), u @ dense)
        np.testing.assert_allclose(kernels.to_dense(dense), dense)

    def test_scipy_sparse_supported(self, dense, rng):
        csr = sp.csr_matrix(dense)
        v = rng.normal(size=8)
        u = rng.normal(size=12)
        np.testing.assert_allclose(kernels.matvec(csr, v), dense @ v)
        np.testing.assert_allclose(kernels.rmatvec(csr, u), u @ dense)
        np.testing.assert_allclose(kernels.to_dense(csr), dense)

    def test_compressed_matrix_supported(self, dense, rng):
        compressed = get_scheme("TOC").compress(dense)
        v = rng.normal(size=8)
        u = rng.normal(size=12)
        m = rng.normal(size=(8, 3))
        k = rng.normal(size=(3, 12))
        np.testing.assert_allclose(kernels.matvec(compressed, v), dense @ v, rtol=1e-9)
        np.testing.assert_allclose(kernels.rmatvec(compressed, u), u @ dense, rtol=1e-9)
        np.testing.assert_allclose(kernels.matmat(compressed, m), dense @ m, rtol=1e-9)
        np.testing.assert_allclose(kernels.rmatmat(compressed, k), k @ dense, rtol=1e-9)
        np.testing.assert_allclose(kernels.to_dense(compressed), dense)

    def test_scale_dispatch(self, dense):
        compressed = get_scheme("CSR").compress(dense)
        np.testing.assert_allclose(
            kernels.to_dense(kernels.scale(compressed, 2.0)), dense * 2.0
        )
        np.testing.assert_allclose(kernels.scale(dense, 2.0), dense * 2.0)

    def test_matmat_and_rmatmat_on_ndarray(self, dense, rng):
        m = rng.normal(size=(8, 4))
        k = rng.normal(size=(4, 12))
        np.testing.assert_allclose(kernels.matmat(dense, m), dense @ m)
        np.testing.assert_allclose(kernels.rmatmat(dense, k), k @ dense)

    def test_duck_typed_object_delegates(self, dense, rng):
        class Duck:
            def matvec(self, v):
                return dense @ v

        v = rng.normal(size=8)
        np.testing.assert_allclose(kernels.matvec(Duck(), v), dense @ v)

    def test_duck_typed_object_missing_kernel_explains(self, dense):
        class OnlyMatvec:
            def matvec(self, v):
                return dense @ v

        with pytest.raises(TypeError, match="rmatvec"):
            kernels.rmatvec(OnlyMatvec(), np.ones(12))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="no kernels registered"):
            kernels.matvec(object(), np.ones(3))

    def test_array_protocol_objects_dispatch_as_arrays(self, dense, rng):
        class ArrayLike:  # e.g. a pandas DataFrame
            def __array__(self, dtype=None):
                return dense if dtype is None else dense.astype(dtype)

        v = rng.normal(size=8)
        np.testing.assert_allclose(kernels.matvec(ArrayLike(), v), dense @ v)
        assert kernels.kernels_for(ArrayLike()).name == "ndarray"

    def test_array_convertible_duck_keeps_its_kernels(self, dense):
        class DuckWithArray:
            def __array__(self, dtype=None):  # pragma: no cover - must not be used
                raise AssertionError("dispatch must prefer the kernel methods")

            def matvec(self, v):
                return dense @ v

        np.testing.assert_allclose(
            kernels.matvec(DuckWithArray(), np.ones(8)), dense @ np.ones(8)
        )

    def test_kernels_for_names_the_representation(self, dense):
        assert kernels.kernels_for(dense).name == "ndarray"
        assert kernels.kernels_for(sp.csr_matrix(dense)).name == "scipy-sparse"
        assert kernels.kernels_for(get_scheme("TOC").compress(dense)).name == "compressed"

    def test_supports_direct_ops(self, dense):
        assert kernels.supports_direct_ops(dense)
        assert kernels.supports_direct_ops(get_scheme("TOC").compress(dense))
        assert not kernels.supports_direct_ops(get_scheme("Gzip").compress(dense))


class TestEverySchemeThroughDispatch:
    """One dispatch layer, every registered representation behind it."""

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_matvec_matches_dense(self, scheme_name, dense, rng):
        compressed = get_scheme(scheme_name).compress(dense)
        v = rng.normal(size=8)
        np.testing.assert_allclose(
            kernels.matvec(compressed, v), dense @ v, rtol=1e-9, atol=1e-12
        )

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_row_slice_matches_fancy_indexing(self, scheme_name, dense):
        compressed = get_scheme(scheme_name).compress(dense)
        rows = [11, 0, 3, 3, 7]
        np.testing.assert_allclose(
            kernels.row_slice(compressed, rows), dense[rows], rtol=1e-9, atol=1e-12
        )


class TestRowSlice:
    def test_ndarray_rows_are_copies(self, dense):
        rows = kernels.row_slice(dense, [2, 5])
        rows[:] = -1.0
        assert not np.allclose(dense[[2, 5]], -1.0)

    def test_scipy_sparse_rows(self, dense):
        got = kernels.row_slice(sp.coo_matrix(dense), [1, 4, 1])
        np.testing.assert_allclose(got, dense[[1, 4, 1]])

    def test_empty_selection(self, dense):
        compressed = get_scheme("TOC").compress(dense)
        assert kernels.row_slice(compressed, []).shape == (0, 8)

    @pytest.mark.parametrize("scheme_name", ("DEN", "CSR", "TOC"))
    def test_out_of_range_rejected(self, scheme_name, dense):
        compressed = get_scheme(scheme_name).compress(dense)
        with pytest.raises(IndexError):
            kernels.row_slice(compressed, [0, 12])
        with pytest.raises(IndexError):
            kernels.row_slice(compressed, [-1])

    def test_direct_op_schemes_slice_without_full_decode(self, dense):
        """TOC's row_slice decodes only the selected rows, never to_dense."""
        compressed = get_scheme("TOC").compress(dense)
        calls = []
        original = type(compressed).to_dense

        def spy(self):
            calls.append(1)
            return original(self)

        type(compressed).to_dense = spy
        try:
            kernels.row_slice(compressed, [0, 5])
        finally:
            type(compressed).to_dense = original
        assert not calls
