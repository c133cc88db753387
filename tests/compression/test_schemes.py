"""Scheme-agnostic contract tests: every registered scheme must be lossless
and must compute every matrix operation exactly like dense NumPy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.registry import available_schemes, get_scheme
from tests.conftest import random_sparse_matrix

ALL_SCHEMES = available_schemes(include_ablations=True)


@pytest.fixture(params=ALL_SCHEMES)
def scheme(request):
    return get_scheme(request.param)


class TestSchemeContract:
    def test_roundtrip_lossless(self, scheme, census_batch):
        compressed = scheme.compress(census_batch)
        assert np.array_equal(compressed.to_dense(), census_batch)

    def test_roundtrip_on_very_sparse(self, scheme, rcv1_batch):
        compressed = scheme.compress(rcv1_batch)
        assert np.array_equal(compressed.to_dense(), rcv1_batch)

    def test_roundtrip_on_fully_dense(self, scheme, dense_batch):
        compressed = scheme.compress(dense_batch)
        assert np.array_equal(compressed.to_dense(), dense_batch)

    def test_roundtrip_on_zero_matrix(self, scheme):
        zeros = np.zeros((8, 5))
        assert np.array_equal(scheme.compress(zeros).to_dense(), zeros)

    def test_roundtrip_single_row(self, scheme):
        row = np.array([[0.0, 1.5, 0.0, 2.5, 2.5]])
        assert np.array_equal(scheme.compress(row).to_dense(), row)

    def test_matvec_matches_dense(self, scheme, census_batch, rng):
        compressed = scheme.compress(census_batch)
        v = rng.normal(size=census_batch.shape[1])
        np.testing.assert_allclose(compressed.matvec(v), census_batch @ v, rtol=1e-9)

    def test_rmatvec_matches_dense(self, scheme, census_batch, rng):
        compressed = scheme.compress(census_batch)
        v = rng.normal(size=census_batch.shape[0])
        np.testing.assert_allclose(compressed.rmatvec(v), v @ census_batch, rtol=1e-9)

    def test_matmat_matches_dense(self, scheme, census_batch, rng):
        compressed = scheme.compress(census_batch)
        m = rng.normal(size=(census_batch.shape[1], 4))
        np.testing.assert_allclose(compressed.matmat(m), census_batch @ m, rtol=1e-9)

    def test_rmatmat_matches_dense(self, scheme, census_batch, rng):
        compressed = scheme.compress(census_batch)
        m = rng.normal(size=(4, census_batch.shape[0]))
        np.testing.assert_allclose(compressed.rmatmat(m), m @ census_batch, rtol=1e-9)

    def test_scale_matches_dense(self, scheme, census_batch):
        compressed = scheme.compress(census_batch)
        np.testing.assert_allclose(compressed.scale(-2.5).to_dense(), census_batch * -2.5, rtol=1e-12)

    def test_serialisation_roundtrip(self, scheme, census_batch):
        compressed = scheme.compress(census_batch)
        restored = scheme.decompress_bytes(compressed.to_bytes())
        assert np.array_equal(restored.to_dense(), census_batch)

    def test_matvec_rejects_wrong_length(self, scheme, census_batch):
        compressed = scheme.compress(census_batch)
        with pytest.raises(ValueError):
            compressed.matvec(np.ones(census_batch.shape[1] + 1))

    def test_rmatvec_rejects_wrong_length(self, scheme, census_batch):
        compressed = scheme.compress(census_batch)
        with pytest.raises(ValueError):
            compressed.rmatvec(np.ones(census_batch.shape[0] + 1))

    def test_shape_and_compression_ratio(self, scheme, census_batch):
        compressed = scheme.compress(census_batch)
        assert compressed.shape == census_batch.shape
        assert compressed.nbytes > 0
        assert compressed.compression_ratio() > 0

    def test_random_matrices_ops(self, scheme, rng):
        dense = random_sparse_matrix(rng, 17, 13)
        compressed = scheme.compress(dense)
        v = rng.normal(size=13)
        u = rng.normal(size=17)
        np.testing.assert_allclose(compressed.matvec(v), dense @ v, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(compressed.rmatvec(u), u @ dense, rtol=1e-9, atol=1e-12)


class TestSchemeSizes:
    """Compression-size relationships the paper's Figure 5 relies on."""

    def test_dense_size_is_exactly_8_bytes_per_cell(self, census_batch):
        dense = get_scheme("DEN").compress(census_batch)
        assert dense.nbytes == census_batch.size * 8

    def test_toc_beats_lightweight_schemes_on_moderate_sparsity(self, census_batch):
        toc = get_scheme("TOC").compress(census_batch).nbytes
        for name in ("CSR", "CVI", "DVI", "CLA"):
            assert toc < get_scheme(name).compress(census_batch).nbytes

    def test_csr_wins_on_very_sparse_data(self, rcv1_batch):
        csr = get_scheme("CSR").compress(rcv1_batch).nbytes
        dvi = get_scheme("DVI").compress(rcv1_batch).nbytes
        den = get_scheme("DEN").compress(rcv1_batch).nbytes
        assert csr < dvi
        assert csr < den

    def test_toc_close_to_csr_on_very_sparse_data(self, rcv1_batch):
        toc = get_scheme("TOC").compress(rcv1_batch).nbytes
        csr = get_scheme("CSR").compress(rcv1_batch).nbytes
        assert toc < 1.5 * csr

    def test_nothing_compresses_dense_noise(self, dense_batch):
        den = get_scheme("DEN").compress(dense_batch).nbytes
        for name in ("CSR", "CVI", "TOC"):
            # Sparse-style schemes cannot beat DEN on fully dense data.
            assert get_scheme(name).compress(dense_batch).nbytes > 0.8 * den

    def test_gzip_compresses_better_than_snappy(self, census_batch):
        gzip_bytes = get_scheme("Gzip").compress(census_batch).nbytes
        snappy_bytes = get_scheme("Snappy").compress(census_batch).nbytes
        assert gzip_bytes < snappy_bytes

    def test_toc_ablation_ordering(self, census_batch):
        sparse = get_scheme("TOC_SPARSE").compress(census_batch).nbytes
        logical = get_scheme("TOC_SPARSE_AND_LOGICAL").compress(census_batch).nbytes
        full = get_scheme("TOC").compress(census_batch).nbytes
        assert full < logical < sparse


class TestDirectOpsFlag:
    def test_byte_block_schemes_require_decompression(self):
        for name in ("Gzip", "Snappy"):
            compressed = get_scheme(name).compress(np.ones((4, 4)))
            assert compressed.supports_direct_ops is False

    def test_structured_schemes_support_direct_ops(self):
        for name in ("DEN", "CSR", "CVI", "DVI", "CLA", "TOC"):
            compressed = get_scheme(name).compress(np.ones((4, 4)))
            assert compressed.supports_direct_ops is True


class TestParsing:
    def test_a_csr_parse_builds_one_scipy_matrix(self, census_batch, monkeypatch):
        import scipy.sparse as sp

        raw = get_scheme("CSR").compress(census_batch).to_bytes()
        built = []
        original = sp.csr_matrix.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0] if args else None)
            original(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "__init__", counted)
        parsed = get_scheme("CSR").decompress_bytes(raw)
        assert len(built) == 1
        np.testing.assert_array_equal(parsed.to_dense(), census_batch)
        assert parsed.to_bytes() == raw

    def test_a_csr_parse_drops_stored_zeros(self, census_batch):
        scheme = get_scheme("CSR")
        raw = bytearray(scheme.compress(census_batch).to_bytes())
        raw[-8:] = np.zeros(1).tobytes()  # the last stored value becomes 0.0
        parsed = scheme.decompress_bytes(bytes(raw))
        assert parsed.nnz == scheme.compress(census_batch).nnz - 1
        expected = census_batch.copy()
        row, col = np.argwhere(census_batch)[-1]
        expected[row, col] = 0.0
        np.testing.assert_array_equal(parsed.to_dense(), expected)

    def test_a_parsed_den_shard_is_a_read_only_view_every_path_reads(self, tmp_path):
        from repro import exec as kernels
        from repro.api import Dataset
        from repro.data.registry import DATASET_PROFILES

        x, y = DATASET_PROFILES["census"].classification(120, seed=5)
        dataset = Dataset.create(tmp_path / "den", x, y, scheme="DEN", batch_size=60,
                                 shuffle=False, workers=1)
        shard = dataset.decode(1)
        assert not shard._data.flags.writeable
        block = x[60:]
        rng = np.random.default_rng(0)
        v, u = rng.normal(size=block.shape[1]), rng.normal(size=block.shape[0])
        m, left = rng.normal(size=(block.shape[1], 3)), rng.normal(size=(3, block.shape[0]))
        np.testing.assert_allclose(kernels.matvec(shard, v), block @ v)
        np.testing.assert_allclose(kernels.rmatvec(shard, u), u @ block)
        np.testing.assert_allclose(kernels.matmat(shard, m), block @ m)
        np.testing.assert_allclose(kernels.rmatmat(shard, left), left @ block)
        np.testing.assert_allclose(kernels.to_dense(kernels.scale(shard, 2.0)), 2.0 * block)
        for dense in (kernels.to_dense(shard), kernels.row_slice(shard, [3, 0, 3])):
            assert dense.flags.writeable  # the caller's own copy
        np.testing.assert_array_equal(kernels.row_slice(shard, [3, 0, 3]), block[[3, 0, 3]])
        selected = dataset.scan(where="c0 > 0", columns=[0, 2])
        np.testing.assert_array_equal(selected.rows, x[x[:, 0] > 0][:, [0, 2]])
        total = dataset.scan(agg="sum:c2").aggregates["sum(c2)"]
        assert total == x[:60, 2].sum() + block[:, 2].sum()
        np.testing.assert_array_equal(dataset.take([119, 0, 61]), x[[119, 0, 61]])
