"""Tests for the physical encoding layer (bit packing + value indexing)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.logical import LogicalEncoding, prefix_tree_encode
from repro.core.physical import (
    physical_decode,
    physical_encode,
    unpacked_decode,
    unpacked_encode,
)
from repro.core.sparse import sparse_encode
from repro.core.toc import TOCMatrix
from repro.core.validate import EncodingError
from repro.storage import mmapio


def _logical(dense: np.ndarray):
    encoding = prefix_tree_encode(sparse_encode(dense))
    return encoding


def _assert_logical_equal(a, b) -> None:
    assert a.shape == b.shape
    assert np.array_equal(a.first_layer_columns, b.first_layer_columns)
    assert np.array_equal(a.first_layer_values, b.first_layer_values)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.row_offsets, b.row_offsets)


class TestPhysicalEncoding:
    def test_roundtrip(self, census_batch):
        logical = _logical(census_batch)
        _assert_logical_equal(physical_decode(physical_encode(logical)), logical)

    def test_roundtrip_zero_matrix(self):
        logical = _logical(np.zeros((3, 4)))
        _assert_logical_equal(physical_decode(physical_encode(logical)), logical)

    def test_decode_copies_no_block(self, census_batch):
        # The read path: every integer block is a read-only view of the
        # payload, and the dictionary is gathered, never copied whole.
        raw = physical_encode(_logical(census_batch))
        restored = physical_decode(raw)
        for block in (restored.first_layer_columns, restored.codes, restored.row_offsets):
            assert not block.flags.writeable and not block.flags.owndata
        _assert_logical_equal(restored, _logical(census_batch))

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_bytes_roundtrip_from_a_mapped_file_at_each_packed_width(self, width, tmp_path):
        # What a shard read hands the parser: a memoryview over a read-only
        # mmap.  The widest column index and code pick the packed width.
        top = 2 ** (8 * width) - 1
        logical = LogicalEncoding(
            first_layer_columns=np.array([0, 7, top]),
            first_layer_values=np.array([1.5, -2.0, 1.5]),
            codes=np.array([1, 2, top, 3]),
            row_offsets=np.array([0, 1, 1, 4]),
            shape=(3, top + 1),
        )
        path = tmp_path / "shard.toc"
        path.write_bytes(physical_encode(logical))
        view = mmapio.map_file(path)
        assert view.readonly
        restored = physical_decode(view)
        assert restored.shape == logical.shape
        # Width 3 is widened to four bytes; the others are the stored bytes.
        itemsize = {1: 1, 2: 2, 3: 4, 4: 4}[width]
        assert restored.codes.itemsize == restored.first_layer_columns.itemsize == itemsize
        _assert_logical_equal(restored, logical)

    @pytest.mark.parametrize("keep", [3, 12, 21, 30, -1])
    def test_truncated_bytes_rejected(self, census_batch, keep):
        raw = physical_encode(_logical(census_batch))
        with pytest.raises(EncodingError):
            physical_decode(raw[:keep])

    def test_bad_magic_rejected(self, census_batch):
        raw = physical_encode(_logical(census_batch))
        with pytest.raises(EncodingError):
            physical_decode(b"XXXX" + raw[4:])

    def test_physical_smaller_than_logical(self, census_batch):
        logical = _logical(census_batch)
        assert len(physical_encode(logical)) < len(unpacked_encode(logical))

    def test_unpacked_roundtrip_is_fixed_width_views(self, census_batch):
        logical = _logical(census_batch)
        raw = unpacked_encode(logical)
        assert len(raw) == (
            36 + 12 * logical.n_first_layer + 4 * logical.n_codes + 4 * (logical.n_rows + 1)
        )
        restored = unpacked_decode(raw)
        for block in (restored.first_layer_columns, restored.codes, restored.row_offsets):
            assert block.itemsize == 4 and not block.flags.writeable
        _assert_logical_equal(restored, logical)

    @pytest.mark.parametrize("keep", [3, 12, 36, 40, -1])
    def test_unpacked_truncated_or_physical_bytes_rejected(self, census_batch, keep):
        logical = _logical(census_batch)
        with pytest.raises(EncodingError):
            unpacked_decode(unpacked_encode(logical)[:keep])
        with pytest.raises(EncodingError, match="magic"):
            unpacked_decode(physical_encode(logical))

    def test_nbytes_matches_serialised_length(self, census_batch):
        toc = TOCMatrix.encode(census_batch)
        restored = TOCMatrix.decompress_bytes(toc.to_bytes())
        assert toc.nbytes == restored.nbytes == len(toc.to_bytes()) == len(restored.to_bytes())

    def test_compressed_smaller_than_dense_on_compressible_data(self, census_batch):
        assert len(physical_encode(_logical(census_batch))) < census_batch.size * 8


class TestPhysicalProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=14),
            elements=st.sampled_from([0.0, 0.0, 1.0, 2.5, -1.25]),
        )
    )
    @settings(max_examples=75, deadline=None)
    def test_roundtrip_property(self, dense):
        logical = _logical(dense)
        _assert_logical_equal(physical_decode(physical_encode(logical)), logical)

