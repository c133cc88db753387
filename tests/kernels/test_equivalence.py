"""The NumPy kernels must be bit-for-bit equivalent to the Python reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import exec as xops
from repro import kernels
from repro.compression.registry import available_schemes, get_scheme
from repro.core.toc import TOCMatrix
from repro.kernels import numpy_backend, python_backend
from repro.storage import mmapio

ALL_SCHEMES = available_schemes(include_ablations=True)

varint_values = st.lists(
    st.integers(min_value=0, max_value=2**63 - 1), min_size=0, max_size=64
)


def test_every_caller_runs_the_numpy_kernels():
    for name in ("varint_encode", "varint_decode", "toc_row_slice", "vi_gather"):
        assert getattr(kernels, name) is getattr(numpy_backend, name)
    assert kernels.MAX_VARINT_BYTES == python_backend.MAX_VARINT_BYTES
    assert kernels.active_backend() == "numpy"  # the provenance ``bench/run.py`` records


class TestVarintEquivalence:
    @given(values=varint_values)
    @settings(max_examples=100, deadline=None)
    def test_encode_identical(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert numpy_backend.varint_encode(arr) == python_backend.varint_encode(arr)

    @given(values=varint_values)
    @settings(max_examples=100, deadline=None)
    def test_decode_identical(self, values):
        raw = python_backend.varint_encode(np.asarray(values, dtype=np.int64))
        got_np, used_np = numpy_backend.varint_decode(raw)
        got_py, used_py = python_backend.varint_decode(raw)
        assert np.array_equal(got_np, got_py)
        assert used_np == used_py == len(raw)

    @given(values=varint_values, extra=st.integers(min_value=0, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_count_and_consumed_identical(self, values, extra):
        """Prefix decodes (validate_tail=False) must agree on bytes consumed."""
        arr = np.asarray(values, dtype=np.int64)
        raw = python_backend.varint_encode(arr) + b"\xff" * extra
        count = len(values)
        got_np, used_np = numpy_backend.varint_decode(raw, count, False)
        got_py, used_py = python_backend.varint_decode(raw, count, False)
        assert np.array_equal(got_np, got_py)
        assert used_np == used_py

    @pytest.mark.parametrize(
        "raw",
        [
            b"\x80",  # lone continuation byte
            b"\x01\x02\x80",  # truncated trailing varint
            b"\xff" * 10 + b"\x01",  # >9-byte varint overflows int64
        ],
    )
    def test_error_cases_agree(self, raw):
        for backend in (python_backend, numpy_backend):
            with pytest.raises(ValueError):
                backend.varint_decode(raw)


class TestRowSliceEquivalence:
    @staticmethod
    def _slice_args(dense, index):
        tree = TOCMatrix.encode(dense).decode_tree
        return (
            tree.codes,
            tree.row_offsets,
            tree.key_columns,
            tree.key_values,
            tree.parents,
            np.asarray(index, dtype=np.intp),
            tree.n_cols,
        )

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
        args = self._slice_args(dense, index)
        got = numpy_backend.toc_row_slice(*args)
        ref = python_backend.toc_row_slice(*args)
        assert np.array_equal(got, ref)
        assert np.array_equal(got, dense[index])

    def test_empty_selection(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        args = self._slice_args(dense, [])
        for backend in (python_backend, numpy_backend):
            out = backend.toc_row_slice(*args)
            assert out.shape == (0, 2)

    def test_single_row_input(self):
        dense = np.array([[0.5, 0.0, 1.5]])
        args = self._slice_args(dense, [0, 0, 0])
        for backend in (python_backend, numpy_backend):
            assert np.array_equal(backend.toc_row_slice(*args), dense[[0, 0, 0]])


class TestViGatherEquivalence:
    @given(
        n_dict=st.integers(min_value=1, max_value=20),
        n_codes=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_gather_identical(self, n_dict, n_codes, seed):
        rng = np.random.default_rng(seed)
        dictionary = rng.normal(size=n_dict)
        codes = rng.integers(0, n_dict, size=n_codes)
        assert np.array_equal(
            numpy_backend.vi_gather(dictionary, codes),
            python_backend.vi_gather(dictionary, codes),
        )


class TestEdgeCasesPerImplementation:
    """Fixed edge cases each implementation must get right on its own."""

    @pytest.mark.parametrize("impl", (python_backend, numpy_backend), ids=("python", "numpy"))
    def test_varint_roundtrip_of_wide_values(self, impl):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2**63 - 1, size=200, dtype=np.int64)
        encoded = impl.varint_encode(values)
        assert encoded == python_backend.varint_encode(values)
        decoded, consumed = impl.varint_decode(encoded)
        assert np.array_equal(decoded, values)
        assert consumed == len(encoded)

    @pytest.mark.parametrize("impl", (python_backend, numpy_backend), ids=("python", "numpy"))
    def test_truncated_tail_raises_with_count_satisfied(self, impl):
        encoded = impl.varint_encode(np.array([1, 2], dtype=np.int64))
        with pytest.raises(ValueError, match="truncated"):
            impl.varint_decode(encoded + b"\x80", count=2)

    @pytest.mark.parametrize("impl", (python_backend, numpy_backend), ids=("python", "numpy"))
    def test_row_slice_out_of_order_and_duplicate_rows(self, impl):
        rng = np.random.default_rng(4)
        dense = np.round(rng.random((30, 8)) * (rng.random((30, 8)) < 0.4), 1)
        args = TestRowSliceEquivalence._slice_args(dense, [5, 2, 5, 0, 29])
        assert np.array_equal(impl.toc_row_slice(*args), dense[[5, 2, 5, 0, 29]])


#: Each varint byte-width boundary: ``2**(7k) - 1`` is the widest value of
#: ``k`` bytes and ``2**(7k)`` the narrowest of ``k + 1``.  Uniform random
#: int64s almost never land on them.
_WIDTH_BOUNDARIES = [(0, 1), (2**63 - 1, 9)] + [
    (value, width)
    for k in range(1, 9)
    for value, width in ((2 ** (7 * k) - 1, k), (2 ** (7 * k), k + 1))
]


@pytest.mark.parametrize(("value", "width"), _WIDTH_BOUNDARIES)
def test_varint_width_boundaries(value, width):
    arr = np.array([value, 1, value], dtype=np.int64)
    raw = numpy_backend.varint_encode(arr)
    assert raw == python_backend.varint_encode(arr)
    assert len(raw) == 2 * width + 1
    decoded, consumed = numpy_backend.varint_decode(raw)
    assert np.array_equal(decoded, arr)
    assert consumed == len(raw)


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
            xops.row_slice(compressed, rows), dense[rows], rtol=1e-9, atol=1e-12
        )

    @pytest.mark.parametrize("source", ("in_memory", "mapped"))
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_empty_and_single_row(self, scheme_name, source, rng, tmp_path):
        dense = np.round(rng.random((5, 4)), 1)
        compressed = _compressed(scheme_name, dense, source, tmp_path)
        assert xops.row_slice(compressed, []).shape == (0, 4)
        np.testing.assert_allclose(xops.row_slice(compressed, [2]), dense[[2]], rtol=1e-9)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_mapped_payload_reserializes_to_the_same_bytes(self, scheme_name, rng, tmp_path):
        """Decoding from a mapping loses nothing: the payload round-trips byte for byte."""
        dense = np.round(rng.random((10, 5)) * (rng.random((10, 5)) < 0.6), 1)
        raw = get_scheme(scheme_name).compress(dense).to_bytes()
        mapped = _compressed(scheme_name, dense, "mapped", tmp_path)
        assert mapped.to_bytes() == raw
        np.testing.assert_allclose(mapped.to_dense(), dense, rtol=1e-9)
