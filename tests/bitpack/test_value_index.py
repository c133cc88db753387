"""Unit and property tests for the value-indexing (dictionary) codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack.bitpacking import pack_integers
from repro.bitpack.value_index import ValueIndex, build_value_index, first_appearance

#: Two NaNs that differ in their payload bits, both zeros, both infinities and
#: the smallest subnormal: every float whose grouping a sort can get wrong.
QUIET_NAN = np.array([0x7FF8000000000000], dtype=np.uint64).view(np.float64)[0]
PAYLOAD_NAN = np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0]
ODD_FLOATS = st.sampled_from(
    [QUIET_NAN, PAYLOAD_NAN, 0.0, -0.0, np.inf, -np.inf, 5e-324, 1.0, -2.5]
)


def reference_value_index(values) -> ValueIndex:
    """The dictionary ``np.unique``'s stable path built: the oracle."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return ValueIndex(dictionary=np.zeros(0), codes=np.zeros(0, dtype=np.int64))
    uniques, first_pos, inverse = np.unique(arr, return_index=True, return_inverse=True)
    order = np.argsort(first_pos, kind="stable")
    remap = np.empty_like(order)
    remap[order] = np.arange(order.size)
    return ValueIndex(dictionary=uniques[order], codes=remap[inverse].astype(np.int64))


class TestValueIndex:
    def test_roundtrip_simple(self):
        values = np.array([1.1, 2.0, 1.1, 3.5, 2.0, 2.0])
        index = build_value_index(values)
        assert np.array_equal(index.decode(), values)

    def test_dictionary_has_unique_values_in_first_appearance_order(self):
        values = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
        index = build_value_index(values)
        assert index.dictionary.tolist() == [3.0, 1.0, 2.0]

    def test_codes_reference_dictionary(self):
        values = np.array([5.0, 7.0, 5.0])
        index = build_value_index(values)
        assert index.dictionary[index.codes].tolist() == values.tolist()

    def test_empty_input(self):
        index = build_value_index(np.array([]))
        assert index.decode().size == 0
        assert index.dictionary.size == 0

    def test_single_value_repeated(self):
        index = build_value_index(np.full(100, 2.5))
        assert index.dictionary.size == 1
        assert np.array_equal(index.decode(), np.full(100, 2.5))

    def test_serialised_smaller_than_doubles_when_few_distinct(self):
        values = np.tile(np.array([1.0, 2.0, 3.0]), 100)
        index = build_value_index(values)
        assert len(index.to_bytes()) < values.size * 8

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(ValueError):
            ValueIndex(dictionary=np.array([1.0]), codes=np.array([0, 1]))

    def test_serialisation_roundtrip(self):
        values = np.array([1.5, -2.0, 1.5, 0.25, -2.0])
        index = build_value_index(values)
        restored, consumed = ValueIndex.from_bytes(index.to_bytes())
        assert consumed == len(index.to_bytes())
        assert np.array_equal(restored.decode(), values)

    def test_truncated_dictionary_rejected(self):
        index = build_value_index(np.array([1.0, 2.0, 3.0]))
        raw = index.to_bytes()
        with pytest.raises(ValueError):
            ValueIndex.from_bytes(raw[:-4])

    @pytest.mark.parametrize("n_values", [200, 300, 70_000])
    def test_dictionary_size_header_at_each_width(self, n_values):
        # The dictionary size is read straight from the header's payload
        # bytes; 200 / 300 / 70 000 distinct values make it 1 / 2 / 3 wide.
        index = build_value_index(np.arange(n_values, dtype=np.float64))
        restored, _ = ValueIndex.from_bytes(memoryview(index.to_bytes()))
        assert np.array_equal(restored.dictionary, index.dictionary)
        assert np.array_equal(restored.codes, index.codes)

    def test_dictionary_size_must_be_one_integer(self):
        codes = pack_integers(np.array([0, 0])).to_bytes()
        two_sizes = pack_integers(np.array([1, 1])).to_bytes()
        with pytest.raises(ValueError):
            ValueIndex.from_bytes(codes + two_sizes + np.array([1.0]).tobytes())


class TestValueIndexProperties:
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=0,
            max_size=300,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.asarray(values, dtype=np.float64)
        index = build_value_index(arr)
        assert np.array_equal(index.decode(), arr)

    @given(
        st.lists(
            st.sampled_from([0.0, 1.0, -1.5, 2.25, 100.0]), min_size=1, max_size=500
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_dictionary_size_bounded_by_distinct_count(self, values):
        arr = np.asarray(values, dtype=np.float64)
        index = build_value_index(arr)
        assert index.dictionary.size == np.unique(arr).size

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=0,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_serialisation_property(self, values):
        arr = np.asarray(values, dtype=np.float64)
        index = build_value_index(arr)
        restored, _ = ValueIndex.from_bytes(index.to_bytes())
        assert np.array_equal(restored.decode(), arr)


class TestFirstAppearance:
    @given(st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 5), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_dict_built_in_input_order(self, keys):
        ids_of: dict[int, int] = {}
        expected = [ids_of.setdefault(key, len(ids_of)) for key in keys]
        first, ids = first_appearance(np.array(keys, dtype=np.uint64))
        assert ids.tolist() == expected
        assert first.tolist() == [keys.index(key) for key in ids_of]


class TestAgainstTheNpUniqueOracle:
    @given(st.lists(ODD_FLOATS, max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_dictionary_bits_and_codes_are_the_oracles(self, values):
        got, expected = build_value_index(values), reference_value_index(values)
        assert got.dictionary.view(np.uint64).tolist() == expected.dictionary.view(
            np.uint64
        ).tolist()
        assert got.codes.dtype == expected.codes.dtype
        assert got.codes.tolist() == expected.codes.tolist()
        assert got.to_bytes() == expected.to_bytes()

    def test_groups_by_equality_and_keeps_the_first_bits(self):
        index = build_value_index([-0.0, PAYLOAD_NAN, 0.0, QUIET_NAN, 5e-324])
        assert index.codes.tolist() == [0, 1, 0, 1, 2]
        assert index.dictionary.view(np.uint64).tolist() == np.array(
            [-0.0, PAYLOAD_NAN, 5e-324]
        ).view(np.uint64).tolist()
