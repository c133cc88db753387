"""Row-slice kernels against ``dense[index]``: TOC's tree walk and every scheme's ``row_slice``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.registry import available_schemes, get_scheme
from repro.core.ops import decode_rows_to_dense
from repro.core.toc import TOCMatrix
from repro.storage import mmapio

ALL_SCHEMES = available_schemes(include_ablations=True)


class TestTocRowSlice:
    """``decode_rows_to_dense`` walks the selected rows' codes up the decode tree."""

    @given(
        n_rows=st.integers(min_value=1, max_value=40),
        n_cols=st.integers(min_value=1, max_value=12),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_shapes_and_sparsities(self, n_rows, n_cols, density, seed):
        rng = np.random.default_rng(seed)
        dense = np.round(rng.random((n_rows, n_cols)), 1)
        dense[rng.random((n_rows, n_cols)) >= density] = 0.0
        index = rng.integers(0, n_rows, size=rng.integers(0, n_rows + 1))
        tree = TOCMatrix.encode(dense).decode_tree
        assert np.array_equal(decode_rows_to_dense(tree, index), dense[index])

    def test_empty_selection(self):
        tree = TOCMatrix.encode(np.array([[1.0, 0.0], [0.0, 2.0]])).decode_tree
        assert decode_rows_to_dense(tree, []).shape == (0, 2)

    def test_single_row_input(self):
        dense = np.array([[0.5, 0.0, 1.5]])
        tree = TOCMatrix.encode(dense).decode_tree
        assert np.array_equal(decode_rows_to_dense(tree, [0, 0, 0]), dense[[0, 0, 0]])

    def test_out_of_order_and_duplicate_rows(self):
        rng = np.random.default_rng(4)
        dense = np.round(rng.random((30, 8)) * (rng.random((30, 8)) < 0.4), 1)
        tree = TOCMatrix.encode(dense).decode_tree
        rows = [5, 2, 5, 0, 29]
        assert np.array_equal(decode_rows_to_dense(tree, rows), dense[rows])


def _compressed(scheme_name: str, dense: np.ndarray, source: str, directory):
    """``dense`` compressed in memory, or decoded from a mapped file of its bytes."""
    scheme = get_scheme(scheme_name)
    compressed = scheme.compress(dense)
    if source == "in_memory":
        return compressed
    path = directory / f"{scheme_name}.bin"
    path.write_bytes(compressed.to_bytes())
    return scheme.decompress_bytes(mmapio.map_file(path))


class TestSchemesRowSlice:
    """Every compression scheme's row_slice matches dense, in memory and mapped."""

    @pytest.mark.parametrize("source", ("in_memory", "mapped"))
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_row_slice_matches_dense(self, scheme_name, source, rng, tmp_path):
        dense = np.round(rng.random((15, 6)) * (rng.random((15, 6)) < 0.5), 1)
        compressed = _compressed(scheme_name, dense, source, tmp_path)
        rows = [14, 0, 3, 3, 9]  # request order and duplicates must be honoured
        np.testing.assert_allclose(
            compressed.row_slice(rows), dense[rows], rtol=1e-9, atol=1e-12
        )

    @pytest.mark.parametrize("source", ("in_memory", "mapped"))
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_empty_and_single_row(self, scheme_name, source, rng, tmp_path):
        dense = np.round(rng.random((5, 4)), 1)
        compressed = _compressed(scheme_name, dense, source, tmp_path)
        assert compressed.row_slice([]).shape == (0, 4)
        np.testing.assert_allclose(compressed.row_slice([2]), dense[[2]], rtol=1e-9)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_mapped_payload_reserializes_to_the_same_bytes(self, scheme_name, rng, tmp_path):
        """Decoding from a mapping loses nothing: the payload round-trips byte for byte."""
        dense = np.round(rng.random((10, 5)) * (rng.random((10, 5)) < 0.6), 1)
        raw = get_scheme(scheme_name).compress(dense).to_bytes()
        mapped = _compressed(scheme_name, dense, "mapped", tmp_path)
        assert mapped.to_bytes() == raw
        np.testing.assert_allclose(mapped.to_dense(), dense, rtol=1e-9)
