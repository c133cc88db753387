"""Tests for the :class:`repro.api.Dataset` lifecycle handle."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Dataset, Estimator
from repro.core.advisor import recommend_scheme
from repro.core.calibration import CALIBRATION_NAME, Calibration
from repro.data.registry import DATASET_PROFILES
from repro.engine.shards import MANIFEST_NAME
from repro.engine.trainer import OutOfCoreTrainer
from repro.ml.models import LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig
from repro.serve.feature_store import FeatureStore


@pytest.fixture(scope="module")
def census():
    return DATASET_PROFILES["census"].classification(400, seed=3)


@pytest.fixture()
def drifted(tmp_path, census, pin_calibration):
    """DEN shards of sparse census data, pinned to re-advise to TOC."""
    features, labels = census
    dataset = Dataset.create(
        tmp_path / "den", features, labels, scheme="DEN", batch_size=100,
        workers=1,
    )
    pin_calibration(dataset.path, {"TOC": 1e-9})
    return dataset


@pytest.fixture()
def dataset(tmp_path, census):
    features, labels = census
    return Dataset.create(
        tmp_path / "shards", features, labels, scheme="TOC", batch_size=100,
        workers=1,
    )


class TestLifecycle:
    def test_create_open_round_trip(self, tmp_path, census, dataset):
        features, _ = census
        reopened = Dataset.open(dataset.path)
        assert len(reopened) == len(dataset) == 4
        assert reopened.n_examples == features.shape[0]
        assert reopened.scheme == "TOC"
        assert Dataset.exists(dataset.path)
        assert not Dataset.exists(tmp_path / "elsewhere")

    def test_create_unknown_scheme_rejected(self, tmp_path, census):
        features, labels = census
        with pytest.raises(KeyError):
            Dataset.create(tmp_path / "bad", features, labels, scheme="LZ77",
                           workers=1)

    def test_batches_decode_losslessly(self, census, dataset):
        features, labels = census
        decoded_rows = sum(m.to_dense().shape[0] for m, _ in dataset.batches())
        assert decoded_rows == features.shape[0]
        all_labels = dataset.labels()
        assert all_labels.shape == labels.shape
        assert set(np.unique(all_labels)) <= set(np.unique(labels))

    def test_append_arrays_and_batches(self, census, dataset):
        features, labels = census
        n_before = len(dataset)
        added = dataset.append(features[:150], labels[:150], workers=1)
        assert [a.batch_id for a in added] == [n_before, n_before + 1]

        added = dataset.append([(features[:40], labels[:40])], workers=1)
        assert added[0].batch_id == n_before + 2
        reopened = Dataset.open(dataset.path)
        assert reopened.n_examples == features.shape[0] + 150 + 40

    def test_stats_reports_mix_and_ratio(self, census, dataset):
        stats = dataset.stats()
        assert stats.n_shards == 4
        assert stats.scheme_counts == {"TOC": 4}
        assert stats.n_cols == census[0].shape[1]
        assert stats.compression_ratio > 1.0
        assert not stats.is_mixed
        as_dict = stats.as_dict()
        assert as_dict["scheme_counts"] == {"TOC": 4}
        assert as_dict["compression_ratio"] == stats.compression_ratio
        json.dumps(as_dict)  # bench provenance must be JSON-serialisable


class TestScalarKeys:
    """``dataset[key]`` with a scalar key takes the same integer row ids as serving."""

    @pytest.mark.parametrize("key", [True, np.bool_(False), 1.0, np.float64(2.0)],
                             ids=["True", "np_False", "float", "np_float"])
    def test_a_bool_or_float_key_is_a_type_error_not_a_row(self, dataset, key):
        with pytest.raises(TypeError):
            dataset[key]

    def test_an_out_of_range_key_is_named_as_given(self, dataset):
        np.testing.assert_array_equal(dataset[-400], dataset.take([0])[0])
        np.testing.assert_array_equal(dataset[np.int32(-1)], dataset.take([399])[0])
        with pytest.raises(IndexError, match=r"row -401 out of range \[0, 400\)"):
            dataset[-401]
        with pytest.raises(IndexError, match=r"row 400 out of range \[0, 400\)"):
            dataset[400]


class TestCompact:
    def test_reencodes_drifted_shards(self, drifted):
        dataset = drifted
        before = dataset.stats().payload_bytes
        report = dataset.compact(readvise=True)

        assert report.examined == 4
        assert report.n_reencoded == 4
        assert {c.scheme_before for c in report.changes} == {"DEN"}
        assert all(c.scheme_after != "DEN" for c in report.changes)
        assert report.payload_bytes_after < before
        assert report.bytes_saved > 0

    def test_compacted_directory_trains_and_serves(self, census, drifted):
        features, _ = census
        dataset = drifted
        dataset.compact()

        # The manifest on disk is format v2 and names the new schemes.
        manifest = json.loads((dataset.path / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == 2
        assert all(row["scheme"] != "DEN" for row in manifest["shards"])

        # The trainer streams the compacted directory...
        reopened = Dataset.open(dataset.path)
        trainer = OutOfCoreTrainer(
            GradientDescentConfig(batch_size=100, epochs=1, learning_rate=0.3)
        )
        trainer.attach(reopened)
        model = LogisticRegressionModel(features.shape[1], seed=0)
        report = trainer.train(model)
        assert np.isfinite(report.final_loss)

        # ...and the feature store row-slices it, returning the original rows.
        store = FeatureStore.open(dataset.path)
        row = store.get_row(0)
        decoded = reopened.decode(0).to_dense()
        np.testing.assert_allclose(row, decoded[0])

    def test_second_compact_is_a_no_op(self, drifted):
        dataset = drifted
        first = dataset.compact()
        assert first.changed

        manifest_before = (dataset.path / MANIFEST_NAME).read_text()
        payloads_before = [dataset.read_payload(i) for i in range(len(dataset))]
        second = dataset.compact()
        assert not second.changed
        assert second.n_reencoded == 0
        assert second.payload_bytes_after == first.payload_bytes_after
        assert [dataset.read_payload(i) for i in range(len(dataset))] == payloads_before
        # The manifest rewrite is byte-identical modulo nothing: same content.
        assert json.loads((dataset.path / MANIFEST_NAME).read_text()) == json.loads(
            manifest_before
        )

    def test_compact_removes_superseded_shard_files(self, drifted):
        dataset = drifted
        old_files = [s.filename for s in dataset.shards]
        dataset.compact()
        new_files = [s.filename for s in dataset.shards]
        assert set(old_files).isdisjoint(new_files)  # staged under new names
        for filename in old_files:
            assert not (dataset.path / filename).exists()  # cleaned after swap
        for filename in new_files:
            assert (dataset.path / filename).exists()

    def test_already_optimal_dataset_is_untouched(self, tmp_path, census):
        # Create and compact advise from the same calibration.json, for the
        # same default workload, so "auto" shards re-advise to themselves.
        features, labels = census
        dataset = Dataset.create(
            tmp_path / "auto", features, labels, scheme="auto", batch_size=100,
            workers=1,
        )
        assert (dataset.path / CALIBRATION_NAME).exists()
        report = dataset.compact()
        assert report.examined == 4
        assert not report.changed

    @pytest.mark.parametrize("profile", sorted(DATASET_PROFILES))
    def test_fitted_auto_directory_compacts_to_a_no_op(self, tmp_path, profile):
        """``Estimator`` and ``compact`` share one default workload and ranking."""
        features, labels = DATASET_PROFILES[profile].classification(1000, seed=0)
        Estimator(scheme="auto", workers=1, epochs=1).fit(
            features, labels, shard_dir=tmp_path / "shards"
        )
        report = Dataset.open(tmp_path / "shards").compact(workers=1)
        assert report.examined == 4
        assert report.n_reencoded == 0

    def test_no_readvise_only_rewrites_manifest(self, tmp_path, census):
        features, labels = census
        dataset = Dataset.create(
            tmp_path / "den", features, labels, scheme="DEN", batch_size=100,
            workers=1,
        )
        report = dataset.compact(readvise=False)
        assert not report.readvised
        assert not report.changed
        assert dataset.stats().scheme_counts == {"DEN": 4}

    def test_upgrades_v1_manifest_in_place(self, tmp_path, census):
        features, labels = census
        dataset = Dataset.create(
            tmp_path / "v1", features, labels, scheme="TOC", batch_size=100,
            workers=1,
        )
        # Downgrade the on-disk manifest to the PR 1 format.
        manifest = json.loads((dataset.path / MANIFEST_NAME).read_text())
        v1 = {
            "format_version": 1,
            "scheme": "TOC",
            "encode_seconds": manifest["encode_seconds"],
            "shards": [
                {k: v for k, v in row.items() if k != "scheme"}
                for row in manifest["shards"]
            ],
        }
        (dataset.path / MANIFEST_NAME).write_text(json.dumps(v1))

        reopened = Dataset.open(dataset.path)
        reopened.compact(readvise=False)
        upgraded = json.loads((dataset.path / MANIFEST_NAME).read_text())
        assert upgraded["format_version"] == 2
        assert all(row["scheme"] == "TOC" for row in upgraded["shards"])

    def test_bad_sample_rows_rejected(self, dataset):
        with pytest.raises(ValueError, match="sample_rows"):
            dataset.compact(sample_rows=0)


class TestWorkloadCalibration:
    def test_create_with_workload_persists_calibration(self, tmp_path, census):
        features, labels = census
        dataset = Dataset.create(
            tmp_path / "serve", features, labels, scheme="auto", batch_size=100,
            workers=1, workload="serve",
        )
        cal_file = dataset.path / CALIBRATION_NAME
        assert cal_file.exists()
        assert Calibration.load(cal_file) is not None
        assert len(dataset) == 4

    def test_compact_with_workload_persists_calibration(self, tmp_path, census):
        features, labels = census
        dataset = Dataset.create(
            tmp_path / "shards", features, labels, scheme="TOC", batch_size=100,
            workers=1,
        )
        report = dataset.compact(workload="serve")
        assert report.examined == 4
        assert (dataset.path / CALIBRATION_NAME).exists()
        # The measured serve model never keeps TOC's slow row_slice around.
        assert "TOC" not in dataset.stats().scheme_counts

    def test_workload_compact_is_idempotent(self, tmp_path, census):
        features, labels = census
        dataset = Dataset.create(
            tmp_path / "shards", features, labels, scheme="auto", batch_size=100,
            workers=1, workload="serve",
        )
        report = dataset.compact(workload="serve")
        assert not report.changed  # encode and compact share one advisor

    def test_fsck_never_sweeps_the_calibration_file(self, tmp_path, census):
        features, labels = census
        dataset = Dataset.create(
            tmp_path / "shards", features, labels, scheme="auto", batch_size=100,
            workers=1, workload="scan",
        )
        report = dataset.fsck()
        assert report.clean
        assert (dataset.path / CALIBRATION_NAME).exists()

    def test_a_directory_calibration_steers_that_directory_only(
        self, tmp_path, census, pin_calibration
    ):
        features, labels = census
        sample = features[:100]
        before = recommend_scheme(sample).best.name
        baseline = Dataset.create(
            tmp_path / "baseline", features, labels, scheme="auto",
            batch_size=100, workers=1,
        )
        pinned = "CSR" if before != "CSR" else "TOC"
        drifted = Dataset.create(
            tmp_path / "a", features, labels, scheme="DEN", batch_size=100,
            workers=1,
        )
        pin_calibration(drifted.path, {pinned: 1e-9})
        drifted.compact(workers=1)
        assert drifted.stats().scheme_counts == {pinned: 4}

        assert recommend_scheme(sample).best.name == before
        fresh = Dataset.create(
            tmp_path / "b", features, labels, scheme="auto", batch_size=100,
            workers=1,
        )
        assert fresh.stats().scheme_counts == baseline.stats().scheme_counts
        assert Calibration.load(fresh.path / CALIBRATION_NAME) != Calibration.load(
            drifted.path / CALIBRATION_NAME
        )

    @pytest.mark.parametrize("workload", ["oltp", None])
    def test_unknown_workload_rejected(self, tmp_path, census, dataset, workload):
        features, labels = census
        with pytest.raises(ValueError, match="unknown workload"):
            Dataset.create(
                tmp_path / "bad", features, labels, scheme="auto",
                workers=1, workload=workload,
            )
        assert not (tmp_path / "bad").exists()
        with pytest.raises(ValueError, match="unknown workload"):
            dataset.append(features[:100], labels[:100], workload=workload)
        with pytest.raises(ValueError, match="unknown workload"):
            dataset.compact(workload=workload)
        assert len(dataset) == 4
