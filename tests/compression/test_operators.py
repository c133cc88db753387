"""``@`` on every representation a model may be handed.

A model writes ``batch @ w`` and ``g @ batch``.  An ndarray and a SciPy
sparse matrix answer that themselves; a ``CompressedMatrix`` answers it
with its own kernels (``__matmul__`` / ``__rmatmul__``), and its
``__array_ufunc__ = None`` makes ``ndarray @ matrix`` hand the product to
it rather than build an object array.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import exec as xops
from repro.compression.registry import available_schemes, get_scheme
from repro.ml.models import FeedForwardNetwork, LogisticRegressionModel
from repro.storage import mmapio

ALL_SCHEMES = available_schemes(include_ablations=True)


@pytest.fixture()
def dense(rng):
    return rng.normal(size=(12, 8)) * (rng.random((12, 8)) < 0.5)


@pytest.fixture()
def operands(rng):
    """``v`` and ``M`` for ``A @ x``, ``u`` and ``K`` for ``x @ A``, on a 12 x 8 ``A``."""
    return (
        rng.normal(size=8), rng.normal(size=(8, 3)), rng.normal(size=12), rng.normal(size=(3, 12))
    )


class TestEveryScheme:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_both_sides_are_the_schemes_own_kernels(self, scheme_name, dense, operands):
        matrix = get_scheme(scheme_name).compress(dense)
        v, m, u, k = operands
        for got, kernel in (
            (matrix @ v, matrix.matvec(v)),
            (matrix @ m, matrix.matmat(m)),
            (u @ matrix, matrix.rmatvec(u)),
            (k @ matrix, matrix.rmatmat(k)),
        ):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, kernel)
        np.testing.assert_allclose(matrix @ v, dense @ v, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(k @ matrix, k @ dense, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_ndarray_on_the_left_defers_to_the_matrix(self, scheme_name, dense, operands):
        matrix = get_scheme(scheme_name).compress(dense)
        _, _, u, k = operands
        calls = []
        kernel = matrix.rmatvec
        matrix.rmatvec = lambda vector: calls.append(1) or kernel(vector)
        product = u @ matrix
        assert calls == [1]
        assert isinstance(product, np.ndarray) and product.dtype == np.float64
        assert product.shape == (8,)
        assert (k @ matrix).dtype == np.float64
        with pytest.raises(TypeError):  # NEP 13: no ufunc coerces the matrix to an object array
            np.matmul(u, matrix)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_an_empty_operand_gives_an_empty_product(self, scheme_name, dense):
        """Zero columns on the right, zero rows on the left: an empty product, as NumPy gives."""
        matrix = get_scheme(scheme_name).compress(dense)
        right, left = matrix @ np.empty((8, 0)), np.empty((0, 12)) @ matrix
        assert right.shape == (12, 0) and right.dtype == np.float64
        assert left.shape == (0, 8) and left.dtype == np.float64

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_a_mismatched_operand_is_refused(self, scheme_name, dense):
        matrix = get_scheme(scheme_name).compress(dense)
        for product in (
            lambda: matrix @ np.ones(7),
            lambda: matrix @ np.ones((7, 2)),
            lambda: np.ones(11) @ matrix,
            lambda: np.ones((2, 11)) @ matrix,
        ):
            with pytest.raises(ValueError):
                product()

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_operand_dtype_and_layout_do_not_change_the_bits(self, scheme_name, dense, rng):
        """Integer, float32, strided and Fortran-order operands give the float64 product."""
        matrix = get_scheme(scheme_name).compress(dense)
        ints = rng.integers(-3, 4, size=8)
        singles = rng.normal(size=12).astype(np.float32)
        strided = rng.normal(size=16)[::2]
        m, k = rng.normal(size=(8, 3)), rng.normal(size=(3, 12))
        for got, expected in (
            (matrix @ ints, matrix @ ints.astype(np.float64)),
            (singles @ matrix, singles.astype(np.float64) @ matrix),
            (matrix @ strided, matrix @ strided.copy()),
            (matrix @ np.asfortranarray(m), matrix @ m),
            (np.asfortranarray(k) @ matrix, k @ matrix),
        ):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_a_mapped_payload_gives_the_in_memory_products(
        self, scheme_name, dense, operands, tmp_path
    ):
        """A matrix parsed from a read-only mapping answers ``@`` bit-equal to the one it was."""
        scheme = get_scheme(scheme_name)
        matrix = scheme.compress(dense)
        path = tmp_path / "shard.bin"
        path.write_bytes(matrix.to_bytes())
        mapped = scheme.decompress_bytes(mmapio.map_file(path))
        v, m, u, k = operands
        np.testing.assert_array_equal(mapped @ v, matrix @ v)
        np.testing.assert_array_equal(mapped @ m, matrix @ m)
        np.testing.assert_array_equal(u @ mapped, u @ matrix)
        np.testing.assert_array_equal(k @ mapped, k @ matrix)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_a_scaled_matrix_answers_and_leaves_its_source(self, scheme_name, dense, operands):
        matrix = get_scheme(scheme_name).compress(dense)
        v, _, u, _ = operands
        for factor in (0.0, -1.5):
            scaled = matrix.scale(factor)
            np.testing.assert_allclose(scaled @ v, (dense * factor) @ v, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(u @ scaled, u @ (dense * factor), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(matrix.to_dense(), dense, rtol=1e-12, atol=0)

    def test_a_scalar_or_3d_operand_is_refused(self, dense):
        matrix = get_scheme("TOC").compress(dense)
        for operand in (2.0, np.ones((2, 8, 1))):
            with pytest.raises(TypeError):
                matrix @ operand
            with pytest.raises(TypeError):
                operand @ matrix


class TestArraysAndSparse:
    """What a model receives when it is not handed a compressed shard."""

    def test_a_model_steps_alike_on_an_ndarray_and_its_den_matrix(self, dense):
        labels = (np.arange(12) % 2).astype(np.float64)
        steps = []
        for batch in (dense, get_scheme("DEN").compress(dense)):
            linear, network = LogisticRegressionModel(8), FeedForwardNetwork(8, hidden_sizes=(4,))
            for model in (linear, network):
                model.gradient_step(batch, labels, 0.1)
            steps.append([linear.get_parameters(), network.get_parameters()])
        for on_array, on_den in zip(*steps):
            np.testing.assert_array_equal(on_array, on_den)

    @pytest.mark.parametrize("layout", (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix))
    def test_scipy_sparse_on_both_sides(self, layout, dense, operands):
        matrix = layout(dense)
        v, m, u, k = operands
        for got, expected in (
            (matrix @ v, dense @ v),
            (matrix @ m, dense @ m),
            (u @ matrix, u @ dense),  # ``ndarray @ sparse``
            (k @ matrix, k @ dense),
        ):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


class TestRowSlice:
    def test_empty_selection(self, dense):
        assert get_scheme("TOC").compress(dense).row_slice([]).shape == (0, 8)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_out_of_range_rejected(self, scheme_name, dense):
        compressed = get_scheme(scheme_name).compress(dense)
        with pytest.raises(IndexError):
            compressed.row_slice([0, 12])
        with pytest.raises(IndexError):
            compressed.row_slice([-1])

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_sliced_rows_are_writable_copies(self, scheme_name, dense, tmp_path):
        """Writing into the rows a slice returns changes neither the matrix nor its mapping."""
        scheme = get_scheme(scheme_name)
        path = tmp_path / "shard.bin"
        path.write_bytes(scheme.compress(dense).to_bytes())
        for matrix in (scheme.compress(dense), scheme.decompress_bytes(mmapio.map_file(path))):
            rows = matrix.row_slice([2, 5, 2])
            rows[:] = -1.0
            np.testing.assert_allclose(matrix.to_dense(), dense, rtol=1e-12, atol=0)
            np.testing.assert_allclose(matrix.row_slice([2, 5]), dense[[2, 5]], rtol=1e-12)

    def test_direct_op_schemes_slice_without_full_decode(self, dense, monkeypatch):
        """TOC's row_slice decodes only the selected rows, never to_dense."""
        compressed = get_scheme("TOC").compress(dense)
        calls = []
        original = type(compressed).to_dense
        monkeypatch.setattr(
            type(compressed), "to_dense", lambda self: calls.append(1) or original(self)
        )
        compressed.row_slice([0, 5])
        assert not calls

    def test_supports_direct_ops(self, dense):
        assert get_scheme("TOC").compress(dense).supports_direct_ops
        assert not get_scheme("Gzip").compress(dense).supports_direct_ops


class TestBenchShims:
    """``repro.exec``'s kernel functions, kept for ``bench/layers.py``, are the matrix's own."""

    @pytest.mark.parametrize(
        ("name", "operand"),
        (("matvec", 0), ("rmatvec", 2), ("matmat", 1), ("rmatmat", 3), ("row_slice", None)),
    )
    def test_each_shim_returns_the_method(self, name, operand, dense, operands):
        matrix = get_scheme("TOC").compress(dense)
        argument = [11, 0, 3, 3] if operand is None else operands[operand]
        np.testing.assert_array_equal(
            getattr(xops, name)(matrix, argument), getattr(matrix, name)(argument)
        )
