"""Tests specific to the simplified CLA implementation."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.compression.cla import CLAMatrix
from repro.compression.dense import DenseMatrix
from repro.core.validate import EncodingError
from tests.conftest import random_sparse_matrix


class TestCLAGrouping:
    def test_quantised_columns_are_cocoded(self):
        # Two columns whose tuples repeat heavily should land in one group.
        rng = np.random.default_rng(0)
        col_a = rng.integers(0, 3, size=200).astype(np.float64)
        col_b = col_a * 2.0
        matrix = np.column_stack([col_a, col_b])
        cla = CLAMatrix(matrix)
        assert cla.n_groups == 1

    def test_high_cardinality_columns_stay_uncompressed(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(50, 3))
        cla = CLAMatrix(matrix)
        # All columns are incompressible: a single uncompressed group.
        assert cla.n_groups == 1
        assert np.array_equal(cla.to_dense(), matrix)

    def test_mixed_columns(self):
        rng = np.random.default_rng(1)
        quantised = rng.integers(0, 4, size=(100, 4)).astype(np.float64)
        continuous = rng.normal(size=(100, 2))
        matrix = np.hstack([quantised, continuous])
        cla = CLAMatrix(matrix)
        assert np.array_equal(cla.to_dense(), matrix)
        assert cla.n_groups >= 2

    def test_explicit_dictionary_hurts_small_batches(self):
        """The CLA property the paper's argument uses: on a small mini-batch the
        dictionary is poorly amortised, so the per-row cost is much higher than
        on a large batch of the same data distribution."""
        rng = np.random.default_rng(2)
        values = np.round(rng.uniform(0, 5, size=8), 2)

        def batch(rows: int) -> np.ndarray:
            return values[rng.integers(0, 8, size=(rows, 30))]

        small = CLAMatrix(batch(25))
        large = CLAMatrix(batch(2500))
        small_per_row = small.nbytes / 25
        large_per_row = large.nbytes / 2500
        assert small_per_row > 1.1 * large_per_row

    def test_compression_on_repetitive_data(self, census_batch):
        cla = CLAMatrix(census_batch)
        assert cla.nbytes < census_batch.size * 8

    def test_ops_on_random_data(self, rng):
        dense = random_sparse_matrix(rng, 40, 12)
        cla = CLAMatrix(dense)
        v = rng.normal(size=12)
        u = rng.normal(size=40)
        np.testing.assert_allclose(cla.matvec(v), dense @ v, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cla.rmatvec(u), u @ dense, rtol=1e-9, atol=1e-12)

    def test_scale_preserves_grouping(self, census_batch):
        cla = CLAMatrix(census_batch)
        scaled = cla.scale(3.0)
        assert scaled.n_groups == cla.n_groups
        np.testing.assert_allclose(scaled.to_dense(), census_batch * 3.0)


def _cocoded_pair() -> np.ndarray:
    """Two columns CLA co-codes into one group of three dictionary entries."""
    col_a = np.random.default_rng(0).integers(0, 3, size=200).astype(np.float64)
    return np.column_stack([col_a, col_a * 2.0])


class TestCLAPayload:
    def test_payload_stores_the_groups_it_is_priced_by(self, census_batch):
        # A 36-byte header, then per compressed group an 8-byte header, 4 bytes
        # a column, the dictionary's doubles and the packed codes (8-byte
        # header, one byte a row here); the uncompressed columns last.
        cla = CLAMatrix(census_batch)
        rows = census_batch.shape[0]
        expected = 36
        for group in cla._groups:
            expected += 4 * group.columns.size
            if hasattr(group, "dictionary"):
                expected += 8 + group.dictionary.nbytes + 8 + rows
            else:
                expected += group.data.nbytes
        assert cla.nbytes == len(cla.to_bytes()) == expected

    def test_parse_reads_the_groups_back_without_planning(self, census_batch, monkeypatch, rng):
        cla = CLAMatrix(census_batch)
        raw = cla.to_bytes()

        def no_planning(dense):
            raise AssertionError("a stored CLA batch was re-planned")

        monkeypatch.setattr("repro.compression.cla._plan_groups", no_planning)
        parsed = CLAMatrix.decompress_bytes(memoryview(raw))
        assert parsed.n_groups == cla.n_groups
        assert parsed.to_dense().tobytes() == census_batch.tobytes()
        assert parsed.to_bytes() == raw
        v = rng.normal(size=census_batch.shape[1])
        np.testing.assert_array_equal(parsed.matvec(v), cla.matvec(v))
        np.testing.assert_array_equal(parsed.scale(2.0).to_dense(), census_batch * 2.0)

    def test_a_column_held_twice_is_refused(self):
        raw = bytearray(CLAMatrix(_cocoded_pair()).to_bytes())
        assert struct.unpack_from("<QQQQII", raw, 4) == (200, 2, 1, 0, 2, 3)
        struct.pack_into("<I", raw, 48, 0)  # the group's columns: [0, 0]
        with pytest.raises(EncodingError, match="columns once"):
            CLAMatrix.decompress_bytes(bytes(raw))

    def test_a_code_past_the_dictionary_is_refused(self):
        raw = bytearray(CLAMatrix(_cocoded_pair()).to_bytes())
        codes = 36 + 8 + 2 * 4 + 3 * 2 * 8
        assert struct.unpack_from("<II", raw, codes) == (200, 1)
        raw[codes + 8] = 3
        with pytest.raises(EncodingError, match="codes"):
            CLAMatrix.decompress_bytes(bytes(raw))

    def test_a_zero_cell_shape_numpy_cannot_hold_is_refused(self):
        # No group and no column: nothing in the payload bounds the row count.
        raw = b"CLA1" + struct.pack("<QQQQ", 2**62, 0, 0, 0)
        with pytest.raises(EncodingError, match="4611686018427387904 x 0"):
            CLAMatrix.decompress_bytes(raw)
        empty = b"CLA1" + struct.pack("<QQQQ", 3, 0, 0, 0)
        assert CLAMatrix.decompress_bytes(empty).shape == (3, 0)

    def test_a_dense_payload_is_refused(self):
        with pytest.raises(EncodingError, match="not a CLA payload"):
            CLAMatrix.decompress_bytes(DenseMatrix(_cocoded_pair()).to_bytes())
        raw = CLAMatrix(_cocoded_pair()).to_bytes()
        with pytest.raises(EncodingError, match="end at"):
            CLAMatrix.decompress_bytes(raw + b"\0")
