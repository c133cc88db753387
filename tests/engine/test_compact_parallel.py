"""Compaction: the advice sample, the re-encode fan-out and the ``max_shards`` budget."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset
from repro.compression.registry import available_schemes, get_scheme
from repro.data.registry import DATASET_PROFILES
from repro.engine.compact import _sample_rows, fsck_dataset


@pytest.fixture(scope="module")
def census():
    return DATASET_PROFILES["census"].classification(400, seed=7)


@pytest.fixture()
def drifted(tmp_path, census, pin_calibration):
    """A directory whose every shard re-advises away from DEN (to TOC)."""
    features, labels = census
    dataset = Dataset.create(
        tmp_path / "den", features, labels, scheme="DEN", batch_size=100,
        workers=1,
    )
    pin_calibration(dataset.path, {"TOC": 1e-9})
    return dataset


class TestAdviceSample:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_sample_is_the_decoded_row_prefix(self, census, scheme):
        """Every scheme's sample is bit-equal to its full decode's first rows."""
        stored = get_scheme(scheme).compress(census[0][:100]).to_bytes()
        matrix = get_scheme(scheme).decompress_bytes(stored)
        dense = matrix.to_dense()
        for k in (1, 37, 100, 250):
            sample = _sample_rows(matrix, 100, k)
            assert sample.shape == dense[:k].shape
            assert sample.tobytes() == dense[:k].tobytes()


class TestMaxShardsBudget:
    def test_budget_defers_excess_shards(self, drifted):
        report = drifted.compact(max_shards=2, workers=1)
        assert report.n_reencoded == 2
        assert report.deferred == 2
        # The untouched shards stay DEN until a later pass.
        schemes = [s.scheme for s in drifted.sharded.shards]
        assert schemes.count("DEN") == 2

    def test_budgeted_passes_converge(self, drifted):
        first = drifted.compact(max_shards=2, workers=1)
        second = drifted.compact(max_shards=2, workers=1)
        third = drifted.compact(workers=1)
        assert (first.n_reencoded, first.deferred) == (2, 2)
        assert (second.n_reencoded, second.deferred) == (2, 0)
        assert not third.changed
        assert all(s.scheme != "DEN" for s in drifted.sharded.shards)

    def test_zero_budget_is_an_advise_only_pass(self, drifted):
        report = drifted.compact(max_shards=0, workers=1)
        assert report.n_reencoded == 0
        assert report.deferred == 4
        assert all(s.scheme == "DEN" for s in drifted.sharded.shards)

    def test_negative_budget_rejected(self, drifted):
        with pytest.raises(ValueError, match="max_shards"):
            drifted.compact(max_shards=-1)

    def test_budgeted_pass_leaves_directory_consistent(self, drifted):
        before = np.vstack([m.to_dense() for m, _ in drifted.batches()])
        drifted.compact(max_shards=1, workers=1)
        assert fsck_dataset(drifted.sharded, remove=False).clean
        reopened = Dataset.open(drifted.path)
        decoded = np.vstack([m.to_dense() for m, _ in reopened.batches()])
        np.testing.assert_allclose(decoded, before)


class TestExecutors:
    def test_pool_and_in_process_write_identical_shards(
        self, tmp_path, census, pool_spy, pin_calibration
    ):
        features, labels = census
        payloads = {}
        for workers in (1, 2):
            dataset = Dataset.create(
                tmp_path / f"den-{workers}", features, labels, scheme="DEN",
                batch_size=100, workers=1,
            )
            pin_calibration(dataset.path, {"TOC": 1e-9})
            before = np.vstack([m.to_dense() for m, _ in dataset.batches()])
            report = dataset.compact(workers=workers)
            assert report.n_reencoded == 4
            reopened = Dataset.open(dataset.path)
            decoded = np.vstack([m.to_dense() for m, _ in reopened.batches()])
            np.testing.assert_allclose(decoded, before)
            payloads[workers] = [
                (reopened.path / s.filename).read_bytes() for s in reopened.sharded.shards
            ]
        assert len(pool_spy) == 1
        assert payloads[1] == payloads[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_names_what_ran(self, drifted, pool_spy, workers):
        report = drifted.compact(workers=workers)
        assert report.n_reencoded == 4
        assert report.executor == ("process" if pool_spy else "serial")
        assert bool(pool_spy) == (workers > 1)

    def test_a_one_shard_rewrite_enters_no_pool(self, drifted, pool_spy):
        # Default workers on a two-CPU box, but one re-encode is one task.
        report = drifted.compact(max_shards=1)
        assert (report.n_reencoded, report.deferred) == (1, 3)
        assert report.executor == "serial"
        assert pool_spy == []

    def test_default_workers_resolve_to_a_known_kind(self, drifted):
        report = drifted.compact()
        assert report.executor in ("serial", "process")
        assert report.n_reencoded == 4

    def test_noop_pass_reports_serial(self, drifted, pool_spy):
        drifted.compact(workers=2)
        report = drifted.compact(workers=2)
        assert not report.changed
        assert report.executor == "serial"
        assert len(pool_spy) == 1  # only the first pass had work to fan out
