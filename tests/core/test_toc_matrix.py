"""Tests for the user-facing TOCMatrix and its variants."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.compression.registry import get_scheme
from repro.core.toc import TOCMatrix, TOCVariant
from repro.data.registry import DATASET_PROFILES
from tests.conftest import random_sparse_matrix


class TestTOCMatrixBasics:
    def test_shape_properties(self, census_batch):
        toc = TOCMatrix.encode(census_batch)
        assert toc.shape == census_batch.shape
        assert toc.n_rows == census_batch.shape[0]
        assert toc.n_cols == census_batch.shape[1]

    def test_roundtrip_random(self, rng):
        dense = random_sparse_matrix(rng, 30, 20)
        assert np.array_equal(TOCMatrix.encode(dense).to_dense(), dense)

    def test_roundtrip_extreme_shapes(self):
        for dense in (np.zeros((1, 1)), np.ones((1, 10)), np.ones((10, 1)), np.zeros((5, 3))):
            assert np.array_equal(TOCMatrix.encode(dense).to_dense(), dense)

    def test_serialisation_roundtrip(self, census_batch):
        toc = TOCMatrix.encode(census_batch)
        restored = TOCMatrix.decompress_bytes(toc.to_bytes())
        assert np.array_equal(restored.to_dense(), census_batch)
        assert restored.nbytes == toc.nbytes

    def test_compression_ratio_above_one_on_compressible_data(self, census_batch):
        assert TOCMatrix.encode(census_batch).compression_ratio() > 1.0

    def test_stats_keys(self, census_batch):
        stats = TOCMatrix.encode(census_batch).stats()
        assert {"rows", "cols", "nnz", "first_layer", "codes", "tree_nodes",
                "compressed_bytes", "compression_ratio"} <= set(stats)

    def test_decode_tree_is_cached(self, census_batch):
        toc = TOCMatrix.encode(census_batch)
        assert toc.decode_tree is toc.decode_tree


class TestTOCMatrixOps:
    def test_all_ops_match_dense(self, census_batch, rng):
        toc = TOCMatrix.encode(census_batch)
        n_rows, n_cols = census_batch.shape
        v = rng.normal(size=n_cols)
        u = rng.normal(size=n_rows)
        m_right = rng.normal(size=(n_cols, 6))
        m_left = rng.normal(size=(6, n_rows))
        np.testing.assert_allclose(toc.matvec(v), census_batch @ v, rtol=1e-10)
        np.testing.assert_allclose(toc.rmatvec(u), u @ census_batch, rtol=1e-10)
        np.testing.assert_allclose(toc.matmat(m_right), census_batch @ m_right, rtol=1e-10)
        np.testing.assert_allclose(toc.rmatmat(m_left), m_left @ census_batch, rtol=1e-10)

    def test_scale_returns_new_matrix(self, census_batch):
        toc = TOCMatrix.encode(census_batch)
        scaled = toc.scale(2.0)
        assert scaled is not toc
        np.testing.assert_allclose(scaled.to_dense(), census_batch * 2.0)
        # The original must be untouched.
        np.testing.assert_allclose(toc.to_dense(), census_batch)

    def test_power(self, census_batch):
        toc = TOCMatrix.encode(census_batch)
        np.testing.assert_allclose(toc.power(2).to_dense(), census_batch**2)

    def test_add_scalar_returns_dense(self, census_batch):
        toc = TOCMatrix.encode(census_batch)
        result = toc.add_scalar(1.5)
        assert isinstance(result, np.ndarray)
        np.testing.assert_allclose(result, census_batch + 1.5)


class TestTOCVariants:
    def test_variant_sizes_are_ordered(self, census_batch):
        """More encoding layers must never increase the size on compressible data."""
        sparse_size = TOCMatrix.encode(census_batch, TOCVariant.SPARSE).nbytes
        logical_size = TOCMatrix.encode(census_batch, TOCVariant.SPARSE_AND_LOGICAL).nbytes
        full_size = TOCMatrix.encode(census_batch, TOCVariant.FULL).nbytes
        assert full_size < logical_size < sparse_size

    def test_all_variants_lossless(self, census_batch):
        for variant in TOCVariant:
            toc = TOCMatrix.encode(census_batch, variant)
            assert np.array_equal(toc.to_dense(), census_batch)

    def test_all_variants_support_ops(self, census_batch, rng):
        v = rng.normal(size=census_batch.shape[1])
        for variant in TOCVariant:
            toc = TOCMatrix.encode(census_batch, variant)
            np.testing.assert_allclose(toc.matvec(v), census_batch @ v, rtol=1e-10)


class TestTOCMatrixOnExtremeData:
    def test_very_sparse_batch(self, rcv1_batch, rng):
        toc = TOCMatrix.encode(rcv1_batch)
        assert np.array_equal(toc.to_dense(), rcv1_batch)
        v = rng.normal(size=rcv1_batch.shape[1])
        np.testing.assert_allclose(toc.matvec(v), rcv1_batch @ v, rtol=1e-9)

    def test_fully_dense_batch(self, dense_batch, rng):
        toc = TOCMatrix.encode(dense_batch)
        assert np.array_equal(toc.to_dense(), dense_batch)
        u = rng.normal(size=dense_batch.shape[0])
        np.testing.assert_allclose(toc.rmatvec(u), u @ dense_batch, rtol=1e-9)

    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError):
            TOCMatrix.encode(np.ones(5))

    def test_non_finite_and_subnormal_cells_round_trip(self):
        # A NaN never equals itself: keyed by float equality, every NaN cell
        # was a pair no lookup could find and Algorithm 1 never advanced.
        tiny = 5e-324
        dense = np.array(
            [
                [1.0, np.nan, 0.0, -tiny],
                [np.inf, 2.0, -np.inf, tiny],
                [1.0, np.nan, 0.0, tiny],
                [np.inf, 2.0, 0.0, tiny],
            ]
        )
        toc = TOCMatrix.decompress_bytes(TOCMatrix.encode(dense).to_bytes())
        restored = toc.to_dense()
        assert np.array_equal(restored, dense, equal_nan=True)
        assert np.array_equal(np.signbit(restored), np.signbit(dense))
        v = np.array([1.0, 2.0, 3.0, 4.0])
        with np.errstate(invalid="ignore"):
            expected, got = dense @ v, toc.matvec(v)
        assert np.isnan(expected[0]) and np.isposinf(expected[3])
        np.testing.assert_allclose(got, expected)


class TestEncodeToBytes:
    def test_round_trips_through_decompress_bytes(self, census_batch):
        raw = TOCMatrix.compress(census_batch).to_bytes()
        assert isinstance(raw, bytes)
        restored = TOCMatrix.decompress_bytes(raw)
        np.testing.assert_allclose(restored.to_dense(), census_batch)
        assert restored.to_bytes() == raw

    def test_bytes_are_the_ones_every_earlier_encoder_wrote(self):
        # Digest of the payload taken before Algorithm 1 moved to integer
        # symbols (PR 14): a faster encoder is not a new on-disk format.
        batch = DATASET_PROFILES["census"].matrix(250, seed=11)
        assert batch.shape == (250, 68)
        digest = hashlib.sha256(TOCMatrix.compress(batch).to_bytes()).hexdigest()
        assert digest == "60b7bbff32d4dfd7b68f244e067743120da7f172ad42fc532c0a7d01115aa4cb"

    @pytest.mark.parametrize(
        ("scheme", "expected"),
        [
            ("CVI", "463c469ba37f7a889ebc063d0ab72b548eaed83a06df8469c26ff9bb2d565d5c"),
            ("DVI", "05def60830c8fb24ea410c7d891a5a08fe4fd904111ac953796fd992234c27e0"),
        ],
    )
    def test_value_dictionaries_are_the_ones_np_unique_wrote(self, scheme, expected):
        # Digests taken while every value dictionary came out of np.unique's
        # stable sort: interning by first appearance must not move a byte.
        batch = DATASET_PROFILES["census"].matrix(250, seed=11)
        digest = hashlib.sha256(get_scheme(scheme).compress(batch).to_bytes()).hexdigest()
        assert digest == expected


def array_bytes(obj) -> int:
    """Bytes of every distinct array ``obj`` holds: each view counts its base once.

    A view of an array counts as that array; a view of a non-array buffer
    (a payload's bytes, as DEN's matrix is) counts as itself.
    """
    seen, owners, stack = set(), {}, [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            base = item
            while isinstance(base.base, np.ndarray):
                base = base.base
            owners[id(base)] = base.nbytes
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return sum(owners.values())


class TestFootprint:
    def test_a_warm_shard_holds_no_more_than_the_dense_batch(self):
        # A shard as the trainer holds it after one step: read from its bytes,
        # A @ v and v @ A done.  It keeps one tree, level-major, and views of
        # its payload; the creation-order tree it used to keep beside the
        # layout made it ~247 KB against DEN's 136 000 B.
        dense = DATASET_PROFILES["census"].matrix(250, seed=11)
        held = {}
        for name in ("DEN", "TOC"):
            scheme = get_scheme(name)
            shard = scheme.decompress_bytes(memoryview(scheme.compress(dense).to_bytes()))
            shard.matvec(np.ones(dense.shape[1]))
            shard.rmatvec(np.ones(dense.shape[0]))
            held[name] = array_bytes(shard)
        assert held["DEN"] == dense.nbytes == 136_000
        assert held["TOC"] <= held["DEN"], held
