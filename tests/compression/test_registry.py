"""Tests for the compression-scheme registry: a scheme name maps to its matrix class."""

from __future__ import annotations

import pytest

from repro.compression.base import CompressedMatrix
from repro.compression.registry import available_schemes, get_scheme
from repro.core.toc import TOCMatrix
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

    @pytest.mark.parametrize("profile", sorted(DATASET_PROFILES))
    @pytest.mark.parametrize("name", REGISTERED)
    def test_size_is_the_stored_payload_which_parses_to_its_class(self, name, profile):
        dense = DATASET_PROFILES[profile].matrix(250, seed=5)
        scheme = get_scheme(name)
        compressed = scheme.compress(dense)
        raw = compressed.to_bytes()
        assert compressed.nbytes == len(raw)
        parsed = scheme.decompress_bytes(raw)
        assert type(parsed) is scheme
        assert parsed.to_dense().tobytes() == dense.tobytes()

    def test_toc_full_alias(self):
        assert get_scheme("TOC_FULL") is TOCMatrix
