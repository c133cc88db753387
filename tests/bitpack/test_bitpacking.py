"""Unit and property tests for the bit-packing codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack.bitpacking import (
    PackedIntArray,
    bytes_per_integer,
    pack_integers,
    unpack_integers,
)


class TestBytesPerInteger:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (0, 1),
            (1, 1),
            (255, 1),
            (256, 2),
            (65535, 2),
            (65536, 3),
            (2**24 - 1, 3),
            (2**24, 4),
            (2**32 - 1, 4),
        ],
    )
    def test_width_boundaries(self, value, expected):
        assert bytes_per_integer(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bytes_per_integer(-1)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            bytes_per_integer(2**32)


class TestPackUnpack:
    @pytest.mark.parametrize("width_max", [200, 60000, 2**20, 2**30])
    def test_roundtrip_each_width(self, width_max):
        rng = np.random.default_rng(0)
        values = rng.integers(0, width_max, size=100)
        packed = pack_integers(values)
        assert np.array_equal(unpack_integers(packed), values)

    def test_empty_array(self):
        packed = pack_integers(np.array([], dtype=np.int64))
        assert packed.count == 0
        assert unpack_integers(packed).size == 0

    def test_all_zeros_use_one_byte(self):
        packed = pack_integers(np.zeros(10, dtype=np.int64))
        assert packed.width == 1
        assert len(packed.data) == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pack_integers(np.array([1, -2, 3]))

    def test_uint24_payload_is_three_bytes_each(self):
        values = np.array([2**16, 2**20, 2**24 - 1])
        packed = pack_integers(values)
        assert packed.width == 3
        assert len(packed.data) == 9

    def test_serialisation_roundtrip(self):
        values = np.array([0, 5, 300, 70000, 2**24 + 7])
        packed = pack_integers(values)
        raw = packed.to_bytes()
        restored, consumed = PackedIntArray.from_bytes(raw)
        assert consumed == len(raw)
        assert np.array_equal(restored.unpack(), values)

    def test_serialisation_with_trailing_bytes(self):
        values = np.array([1, 2, 3])
        raw = pack_integers(values).to_bytes() + b"extra"
        restored, consumed = PackedIntArray.from_bytes(raw)
        assert consumed == len(raw) - len(b"extra")
        assert np.array_equal(restored.unpack(), values)

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError):
            PackedIntArray.from_bytes(b"\x01\x00")

    def test_truncated_payload_rejected(self):
        raw = pack_integers(np.arange(10)).to_bytes()
        with pytest.raises(ValueError):
            PackedIntArray.from_bytes(raw[:-3])

    def test_unsupported_width_rejected(self):
        header = np.array([1, 7], dtype="<u4").tobytes()
        with pytest.raises(ValueError):
            PackedIntArray.from_bytes(header + b"\x00" * 7)

    def test_serialised_length_counts_header(self):
        packed = pack_integers(np.arange(4))
        assert len(packed.to_bytes()) == len(packed.data) + 8


class TestBitpackingProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=0, max_size=200)
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, values):
        packed = pack_integers(np.asarray(values, dtype=np.int64))
        assert np.array_equal(unpack_integers(packed), np.asarray(values, dtype=np.int64))

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=100)
    )
    @settings(max_examples=50, deadline=None)
    def test_width_is_minimal(self, values):
        packed = pack_integers(np.asarray(values, dtype=np.int64))
        assert packed.width == bytes_per_integer(max(values))

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=0, max_size=100)
    )
    @settings(max_examples=50, deadline=None)
    def test_serialisation_roundtrip_property(self, values):
        packed = pack_integers(np.asarray(values, dtype=np.int64))
        restored, _ = PackedIntArray.from_bytes(packed.to_bytes())
        assert np.array_equal(restored.unpack(), np.asarray(values, dtype=np.int64))

    @given(
        st.lists(
            st.integers(min_value=2**16, max_value=2**24 - 1), min_size=1, max_size=100
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_uint24_fuzz_roundtrip(self, values):
        """Width 3 (uint24) has no native dtype — fuzz it explicitly."""
        arr = np.asarray(values, dtype=np.int64)
        packed = pack_integers(arr)
        assert packed.width == 3
        assert np.array_equal(unpack_integers(packed), arr)
        restored, _ = PackedIntArray.from_bytes(packed.to_bytes())
        assert np.array_equal(restored.unpack(), arr)

    def test_uint24_edge_values_roundtrip(self):
        edges = np.array([2**16, 2**16 + 1, 2**24 - 2, 2**24 - 1], dtype=np.int64)
        packed = pack_integers(edges)
        assert packed.width == 3
        restored, consumed = PackedIntArray.from_bytes(packed.to_bytes())
        assert consumed == len(packed.to_bytes())
        assert np.array_equal(restored.unpack(), edges)
