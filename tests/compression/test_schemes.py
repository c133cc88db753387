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

    def test_a_csr_row_slice_builds_no_scipy_matrix_and_a_scale_one(
        self, census_batch, monkeypatch
    ):
        import scipy.sparse as sp

        scheme = get_scheme("CSR")
        parsed = scheme.decompress_bytes(scheme.compress(census_batch).to_bytes())
        built = []
        original = sp.csr_matrix.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0] if args else None)
            original(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "__init__", counted)
        rows = [17, 3, 3, census_batch.shape[0] - 1, 0, 17]  # out of order, duplicated
        np.testing.assert_array_equal(parsed.row_slice(rows), census_batch[rows])
        assert len(built) == 0
        scaled = parsed.scale(2.5)
        assert len(built) == 1
        np.testing.assert_array_equal(scaled.row_slice(rows), census_batch[rows] * 2.5)
        np.testing.assert_array_equal(scaled.to_dense(), census_batch * 2.5)
        # A cell scaled to 0 is dropped: the shard it came from keeps its cells.
        assert parsed.scale(0.0).nnz == 0
        np.testing.assert_array_equal(parsed.to_dense(), census_batch)

    @pytest.mark.parametrize("name", ["CSR", "CVI"])
    @pytest.mark.parametrize(
        "row_0_columns", [[2, 0, 1], [0, 2, 0]], ids=["unsorted", "repeated"]
    )
    def test_a_row_layout_built_from_scipy_matches_its_dense_form_and_parses_back(
        self, name, row_0_columns
    ):
        import scipy.sparse as sp

        # Row 0 stores its columns out of order, or column 0 twice; row 1 is empty.
        source = sp.csr_matrix(
            (np.array([1.0, 2.0, 3.0, 4.0]), np.array(row_0_columns + [1]), np.array([0, 3, 3, 4])),
            shape=(3, 3),
        )
        expected = source.toarray()  # SciPy sums a repeated column's cells
        matrix = get_scheme(name).compress(source)
        rows = [2, 0, 0, 1]
        for readable in (matrix, get_scheme(name).decompress_bytes(matrix.to_bytes())):
            np.testing.assert_array_equal(readable.to_dense(), expected)
            np.testing.assert_array_equal(readable.row_slice(rows), expected[rows])
            np.testing.assert_array_equal(readable @ np.arange(3.0), expected @ np.arange(3.0))
        assert list(source.indices) == row_0_columns + [1]  # the caller's matrix is untouched

    def test_a_csr_payload_repeating_a_column_in_a_row_is_refused(self):
        from repro.core.validate import EncodingError

        raw = bytearray(get_scheme("CSR").compress(np.array([[1.0, 2.0], [0.0, 3.0]])).to_bytes())
        indices = 24 + 3 * 4  # after the header and the three row offsets
        raw[indices + 4 : indices + 8] = raw[indices : indices + 4]  # row 0 holds column 0 twice
        # Were it accepted, to_dense would sum the two cells (3.0) and row_slice keep one (2.0).
        with pytest.raises(EncodingError, match="increase within each row"):
            get_scheme("CSR").decompress_bytes(bytes(raw))

    @pytest.mark.parametrize(
        "row_0_columns", [[0, 0], [2, 0]], ids=["repeated", "unsorted"]
    )
    def test_a_cvi_payload_out_of_order_in_a_row_is_refused(self, row_0_columns):
        from repro.bitpack.bitpacking import pack_integers
        from repro.bitpack.value_index import build_value_index
        from repro.core.validate import EncodingError

        # A 2 x 3 payload packed by hand: row 0 stores two cells, row 1 one.
        raw = (
            np.array([2, 3, 3], dtype="<u8").tobytes()
            + pack_integers([0, 2, 3]).to_bytes()
            + pack_integers(row_0_columns + [1]).to_bytes()
            + build_value_index(np.array([1.0, 2.0, 5.0])).to_bytes()
        )
        # Were "repeated" accepted, to_dense and matvec would sum its two cells
        # (3.0) while row_slice kept one (2.0).
        with pytest.raises(EncodingError, match="increase within each row"):
            get_scheme("CVI").decompress_bytes(raw)

    def test_a_parsed_den_shard_is_a_read_only_view_every_path_reads(self, tmp_path):
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
        np.testing.assert_allclose(shard @ v, block @ v)
        np.testing.assert_allclose(u @ shard, u @ block)
        np.testing.assert_allclose(shard @ m, block @ m)
        np.testing.assert_allclose(left @ shard, left @ block)
        np.testing.assert_allclose(shard.scale(2.0).to_dense(), 2.0 * block)
        for dense in (shard.to_dense(), shard.row_slice([3, 0, 3])):
            assert dense.flags.writeable  # the caller's own copy
        np.testing.assert_array_equal(shard.row_slice([3, 0, 3]), block[[3, 0, 3]])
        selected = dataset.scan(where="c0 > 0", columns=[0, 2])
        np.testing.assert_array_equal(selected.rows, x[x[:, 0] > 0][:, [0, 2]])
        total = dataset.scan(agg="sum:c2").aggregates["sum(c2)"]
        assert total == x[:60, 2].sum() + block[:, 2].sum()
        np.testing.assert_array_equal(dataset.take([119, 0, 61]), x[[119, 0, 61]])
