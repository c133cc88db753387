"""Tests for the scheme advisor (Section 5.1's 'test on a sample' advice)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advisor import SchemeReport, _rank_key, recommend_scheme
from repro.core.calibration import ensure_calibration
from tests.conftest import fake_calibration


class TestRecommendScheme:
    def test_reports_cover_all_default_schemes(self, census_batch):
        recommendation = recommend_scheme(census_batch)
        assert len(recommendation.reports) == 8
        assert recommendation.sample_shape == census_batch.shape

    def test_reports_sorted_cheapest_first(self, census_batch):
        recommendation = recommend_scheme(census_batch)
        costs = [report.measured_cost for report in recommendation.reports]
        assert costs == sorted(costs)

    def test_equal_kernel_costs_rank_by_compressed_size(self, census_batch):
        """With every kernel equally fast only the I/O term differs: the
        scheme that stores the sample in the fewest bytes wins."""
        names = ["DEN", "CSR", "TOC", "Gzip"]
        cal = fake_calibration(dict.fromkeys(names, 1e-8))
        recommendation = recommend_scheme(census_batch, schemes=names, calibration=cal)
        by_ratio = sorted(
            recommendation.reports, key=lambda r: (-r.compression_ratio, r.name)
        )
        assert recommendation.ranked_names() == [r.name for r in by_ratio]

    def test_dense_noise_does_not_recommend_sparse_schemes(self, dense_batch):
        best = recommend_scheme(dense_batch).best
        assert best.compression_ratio <= 1.5

    def test_default_calibration_is_this_process(self, census_batch):
        implicit = recommend_scheme(census_batch)
        explicit = recommend_scheme(census_batch, calibration=ensure_calibration())
        assert implicit.reports == explicit.reports

    def test_subset_of_schemes(self, census_batch):
        recommendation = recommend_scheme(census_batch, schemes=["DEN", "CSR"])
        assert recommendation.ranked_names() == ["CSR", "DEN"] or recommendation.ranked_names() == ["DEN", "CSR"]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            recommend_scheme(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            recommend_scheme(np.ones(5))

    def test_rejects_unknown_workload(self, census_batch):
        with pytest.raises(ValueError, match="unknown workload"):
            recommend_scheme(census_batch, workload="batch-oltp")
        with pytest.raises(ValueError, match="unknown workload None"):
            recommend_scheme(census_batch, workload=None)


class TestDeterministicTieBreak:
    def test_ties_break_on_name(self):
        tied = [
            SchemeReport(n, 2.0, True, measured_cost=1e-9)
            for n in ("Zeta", "Alpha", "Mid")
        ]
        assert [r.name for r in sorted(tied, key=_rank_key)] == [
            "Alpha", "Mid", "Zeta",
        ]

    def test_ranking_invariant_to_scheme_input_order(self, census_batch):
        forward = recommend_scheme(census_batch, schemes=["DEN", "CSR", "Gzip", "Snappy"])
        reverse = recommend_scheme(census_batch, schemes=["Snappy", "Gzip", "CSR", "DEN"])
        assert forward.ranked_names() == reverse.ranked_names()
        assert forward.best.name == reverse.best.name


class TestSourceDtypeBaseline:
    def test_float32_ratio_uses_4_byte_baseline(self, census_batch):
        """Schemes upcast to float64 internally; the ratio baseline must not.

        The old float64 baseline credited float32 datasets with 2x the
        compression they actually achieve against their own footprint.
        """
        as32 = census_batch.astype(np.float32)
        as64 = as32.astype(np.float64)  # identical values, 8-byte dtype
        r64 = {r.name: r for r in recommend_scheme(as64).reports}
        r32 = {r.name: r for r in recommend_scheme(as32).reports}
        for name, report in r32.items():
            assert report.compression_ratio == pytest.approx(
                r64[name].compression_ratio / 2.0, rel=1e-9
            )

    def test_object_dtype_falls_back_to_8_byte_baseline(self):
        batch64 = np.array([[0.0, 1.5], [1.5, 0.0]])
        as_object = batch64.astype(object)
        ratio64 = recommend_scheme(batch64, schemes=["DEN"]).best.compression_ratio
        ratio_obj = recommend_scheme(as_object, schemes=["DEN"]).best.compression_ratio
        assert ratio_obj == pytest.approx(ratio64)


class TestCalibratedRanking:
    def test_pick_follows_measured_cost(self, census_batch):
        # A calibration saying one scheme's kernels are 1000x slower must
        # steer the pick away from it, whichever way round.
        names = ["DEN", "TOC"]
        toc_slow = fake_calibration({"DEN": 1e-9, "TOC": 1e-6})
        den_slow = fake_calibration({"DEN": 1e-6, "TOC": 1e-9})
        for cal, winner in ((toc_slow, "DEN"), (den_slow, "TOC")):
            measured = recommend_scheme(
                census_batch, schemes=names, workload="serve", calibration=cal
            )
            assert measured.best.name == winner
            assert measured.workload == "serve"

    def test_workload_defaults_to_train(self, census_batch):
        cal = fake_calibration({"DEN": 1e-9, "TOC": 1e-6})
        measured = recommend_scheme(census_batch, schemes=["DEN", "TOC"], calibration=cal)
        assert measured.workload == "train"
