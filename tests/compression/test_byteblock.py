"""Tests for the Gzip / Snappy-like byte-block schemes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.byteblock import GzipMatrix, SnappyLikeMatrix


class TestByteBlockSchemes:
    def test_gzip_roundtrip(self, census_batch):
        assert np.array_equal(GzipMatrix(census_batch).to_dense(), census_batch)

    def test_snappy_roundtrip(self, census_batch):
        assert np.array_equal(SnappyLikeMatrix(census_batch).to_dense(), census_batch)

    def test_gzip_smaller_than_snappy_on_compressible_data(self, census_batch):
        assert GzipMatrix(census_batch).nbytes < SnappyLikeMatrix(census_batch).nbytes

    def test_both_compress_repetitive_data(self, census_batch):
        dense_bytes = census_batch.size * 8
        assert GzipMatrix(census_batch).nbytes < dense_bytes
        assert SnappyLikeMatrix(census_batch).nbytes < dense_bytes

    def test_ops_decompress_first_but_are_correct(self, census_batch, rng):
        compressed = GzipMatrix(census_batch)
        v = rng.normal(size=census_batch.shape[1])
        np.testing.assert_allclose(compressed.matvec(v), census_batch @ v, rtol=1e-12)

    def test_serialisation_roundtrip(self, census_batch):
        compressed = GzipMatrix(census_batch)
        restored = GzipMatrix.decompress_bytes(compressed.to_bytes())
        assert np.array_equal(restored.to_dense(), census_batch)

    def test_requires_matrix_or_payload(self):
        with pytest.raises(ValueError):
            GzipMatrix(None)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            SnappyLikeMatrix(np.ones(5))

    def test_scale_returns_same_scheme(self, census_batch):
        scaled = SnappyLikeMatrix(census_batch).scale(2.0)
        assert isinstance(scaled, SnappyLikeMatrix)
        np.testing.assert_allclose(scaled.to_dense(), census_batch * 2.0)
