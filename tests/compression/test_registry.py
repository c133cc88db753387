"""Tests for the compression-scheme registry: a scheme name maps to its matrix class."""

from __future__ import annotations

import pytest

from repro.compression.base import CompressedMatrix
from repro.compression.registry import available_schemes, get_scheme
from repro.core.toc import TOCMatrix, TOCVariant
from repro.data.registry import DATASET_PROFILES

#: Every name ``get_scheme`` answers, the ``TOC_FULL`` alias included.
REGISTERED = available_schemes(include_ablations=True) + ["TOC_FULL"]


class TestRegistry:
    def test_all_paper_schemes_available(self):
        names = available_schemes()
        assert names == ["DEN", "CSR", "CVI", "DVI", "CLA", "Snappy", "Gzip", "TOC"]

    def test_ablation_variants_listed_when_requested(self):
        names = available_schemes(include_ablations=True)
        assert "TOC_SPARSE" in names
        assert "TOC_SPARSE_AND_LOGICAL" in names

    def test_unknown_scheme_raises_keyerror_with_hint(self):
        with pytest.raises(KeyError, match="valid names"):
            get_scheme("LZ77")

    @pytest.mark.parametrize("name", REGISTERED)
    def test_a_scheme_is_its_matrix_class(self, name):
        scheme = get_scheme(name)
        assert isinstance(scheme, type) and issubclass(scheme, CompressedMatrix)
        assert scheme.scheme_name == ("TOC" if name == "TOC_FULL" else name)

    @pytest.mark.parametrize("name", REGISTERED)
    def test_payload_round_trips_bit_equal(self, name):
        dense = DATASET_PROFILES["census"].matrix(60, seed=5)
        scheme = get_scheme(name)
        parsed = scheme.decompress_bytes(scheme.compress(dense).to_bytes())
        assert parsed.to_dense().tobytes() == dense.tobytes()

    def test_toc_full_alias(self):
        assert get_scheme("TOC_FULL") is TOCMatrix
        assert get_scheme("TOC_FULL").variant is TOCVariant.FULL

    def test_toc_variants_map_correctly(self):
        assert get_scheme("TOC").variant is TOCVariant.FULL
        assert get_scheme("TOC_SPARSE").variant is TOCVariant.SPARSE
        assert get_scheme("TOC_SPARSE_AND_LOGICAL").variant is TOCVariant.SPARSE_AND_LOGICAL

    @pytest.mark.parametrize("name", ["TOC_SPARSE", "TOC_SPARSE_AND_LOGICAL"])
    def test_toc_ablations_compress_with_their_variant_and_parse_full(self, name):
        dense = DATASET_PROFILES["census"].matrix(60, seed=5)
        scheme = get_scheme(name)
        compressed = scheme.compress(dense)
        assert type(compressed) is TOCMatrix and compressed.variant is scheme.variant
        parsed = scheme.decompress_bytes(compressed.to_bytes())
        assert type(parsed) is TOCMatrix and parsed.variant is TOCVariant.FULL
        assert compressed.to_bytes() == TOCMatrix.compress(dense).to_bytes()
