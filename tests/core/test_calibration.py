"""Tests for the measured-kernel calibration behind workload-aware advice."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

import repro.core.calibration as calibration_module
from repro.core.advisor import recommend_scheme
from repro.core.calibration import (
    CALIBRATION_NAME,
    CALIBRATION_OPS,
    CALIBRATION_VERSION,
    WORKLOAD_MIXES,
    WORKLOADS,
    Calibration,
    calibrate,
    calibration_path,
    ensure_calibration,
    platform_fingerprint,
    synthetic_batch,
)

#: A tiny-but-real pass: two schemes, two levels, one repeat keeps it fast.
FAST = dict(rows=24, cols=8, sparsity_levels=(0.0, 0.9), repeats=1)


@pytest.fixture(autouse=True)
def drop_cache(monkeypatch):
    """Each test starts without a process-wide cached calibration, and can drop
    it again by calling this fixture; monkeypatch restores it afterwards."""

    def drop() -> None:
        monkeypatch.setattr(calibration_module, "_PROCESS_CACHE", None)

    drop()
    return drop


@pytest.fixture(scope="module")
def small_calibration():
    return calibrate(["DEN", "TOC"], **FAST)


class TestSyntheticBatch:
    def test_sparsity_level_is_hit(self):
        batch = synthetic_batch(200, 40, 0.9, seed=3)
        assert np.mean(batch == 0.0) == pytest.approx(0.9, abs=0.05)

    def test_deterministic_per_seed(self):
        assert np.array_equal(synthetic_batch(50, 8, 0.5), synthetic_batch(50, 8, 0.5))


class TestCalibrate:
    def test_covers_every_requested_scheme_and_op(self, small_calibration):
        cal = small_calibration
        assert cal.schemes() == ["DEN", "TOC"]
        assert cal.covers(["DEN", "TOC"])
        for per_level in cal.timings.values():
            assert len(per_level) == 2
            for per_op in per_level.values():
                assert set(per_op) == set(CALIBRATION_OPS)
                assert all(seconds >= 0 for seconds in per_op.values())

    def test_stamped_with_platform_and_version(self, small_calibration):
        cal = small_calibration
        assert cal.version == CALIBRATION_VERSION
        fingerprint = platform_fingerprint()
        assert {k: cal.platform[k] for k in fingerprint} == fingerprint
        assert "cpu_count" in cal.platform

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            calibrate([])
        with pytest.raises(ValueError):
            calibrate(["DEN"], sparsity_levels=())

    def test_pickles_for_process_pool_workers(self, small_calibration):
        clone = pickle.loads(pickle.dumps(small_calibration))
        assert clone == small_calibration


class TestPersistence:
    def test_round_trip_preserves_everything(self, small_calibration, tmp_path):
        path = small_calibration.save(tmp_path / "sub" / CALIBRATION_NAME)
        loaded = Calibration.load(path)
        assert loaded == small_calibration

    def test_round_trip_preserves_recommendation(self, small_calibration, tmp_path):
        """The acceptance gate: persist -> reload -> identical advice."""
        path = small_calibration.save(tmp_path / CALIBRATION_NAME)
        loaded = Calibration.load(path)
        batch = synthetic_batch(120, 16, 0.6, seed=7)
        for workload in WORKLOADS:
            fresh = recommend_scheme(
                batch, schemes=["DEN", "TOC"], workload=workload,
                calibration=small_calibration,
            )
            reloaded = recommend_scheme(
                batch, schemes=["DEN", "TOC"], workload=workload, calibration=loaded
            )
            assert fresh.ranked_names() == reloaded.ranked_names()
            assert [r.measured_cost for r in fresh.reports] == [
                r.measured_cost for r in reloaded.reports
            ]

    def test_load_missing_or_corrupt_returns_none(self, tmp_path):
        assert Calibration.load(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert Calibration.load(bad) is None
        bad.write_text(json.dumps({"version": 1}))  # valid JSON, wrong shape
        assert Calibration.load(bad) is None


class TestStaleness:
    def test_fresh_calibration_is_not_stale(self, small_calibration):
        assert not small_calibration.is_stale(["DEN", "TOC"])

    def test_version_bump_makes_it_stale(self, small_calibration):
        payload = small_calibration.to_dict()
        payload["version"] = CALIBRATION_VERSION + 1
        assert Calibration.from_dict(payload).is_stale()

    def test_platform_mismatch_makes_it_stale(self, small_calibration):
        payload = small_calibration.to_dict()
        payload["platform"] = {**payload["platform"], "machine": "vax780"}
        assert Calibration.from_dict(payload).is_stale()

    def test_uncovered_scheme_makes_it_stale(self, small_calibration):
        assert small_calibration.is_stale(["DEN", "TOC", "CSR"])
        assert not small_calibration.is_stale(["DEN"])

    def test_commit_mismatch_does_not_make_it_stale(self, small_calibration):
        payload = small_calibration.to_dict()
        payload["git_commit"] = "0" * 40
        assert not Calibration.from_dict(payload).is_stale(["DEN", "TOC"])


class TestCostModel:
    def test_nearest_level_match(self, small_calibration):
        assert small_calibration.nearest_level(0.1) == "0.0"
        assert small_calibration.nearest_level(0.97) == "0.9"

    def test_expected_cost_weighs_the_op_mix(self, small_calibration):
        cal = small_calibration
        for workload, mix in WORKLOAD_MIXES.items():
            compute = sum(
                weight * cal.op_seconds("TOC", op, 0.0) for op, weight in mix.items()
            )
            cost = cal.expected_cost(
                "TOC", workload=workload, sparsity=0.0, bytes_per_element=1.5
            )
            assert cost == pytest.approx(compute + 1.5 / 150e6)

    def test_expected_cost_rejects_unknown_workload(self, small_calibration):
        with pytest.raises(ValueError, match="unknown workload"):
            small_calibration.expected_cost(
                "TOC", workload="nope", sparsity=0.0, bytes_per_element=1.0
            )

    def test_op_seconds_missing_scheme_raises(self, small_calibration):
        with pytest.raises(KeyError, match="recalibrate"):
            small_calibration.op_seconds("CSR", "matmat", 0.0)


class TestEnsureCalibration:
    def test_persists_next_to_the_directory(self, tmp_path):
        cal = ensure_calibration(tmp_path, ["DEN"], **FAST)
        path = calibration_path(tmp_path)
        assert path.exists()
        assert Calibration.load(path) == cal

    def test_reuses_the_process_cache(self, tmp_path, monkeypatch):
        ensure_calibration(None, ["DEN"], **FAST)
        import repro.core.calibration as mod

        def boom(*args, **kwargs):
            raise AssertionError("calibrate must not re-run for a cached request")

        monkeypatch.setattr(mod, "calibrate", boom)
        # Second call is served from the cache — and copies the file down
        # into a directory that lacks one.
        cal = ensure_calibration(tmp_path, ["DEN"], **FAST)
        assert calibration_path(tmp_path).exists()
        assert cal.covers(["DEN"])

    def test_prefers_the_on_disk_file(self, tmp_path, monkeypatch, drop_cache):
        first = ensure_calibration(tmp_path, ["DEN"], **FAST)
        drop_cache()
        import repro.core.calibration as mod

        def boom(*args, **kwargs):
            raise AssertionError("a valid on-disk file must short-circuit calibrate")

        monkeypatch.setattr(mod, "calibrate", boom)
        assert ensure_calibration(tmp_path, ["DEN"], **FAST) == first

    def test_stale_file_is_recomputed_and_overwritten(self, tmp_path, drop_cache):
        stale = ensure_calibration(tmp_path, ["DEN"], **FAST).to_dict()
        stale["version"] = CALIBRATION_VERSION + 1
        calibration_path(tmp_path).write_text(json.dumps(stale))
        drop_cache()
        fresh = ensure_calibration(tmp_path, ["DEN"], **FAST)
        assert fresh.version == CALIBRATION_VERSION
        assert Calibration.load(calibration_path(tmp_path)).version == CALIBRATION_VERSION

    def test_refresh_forces_a_new_pass(self, tmp_path):
        first = ensure_calibration(tmp_path, ["DEN"], **FAST)
        second = ensure_calibration(tmp_path, ["DEN"], refresh=True, **FAST)
        assert second.created_unix >= first.created_unix
