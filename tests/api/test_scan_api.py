"""``Dataset.scan`` / ``take`` / ``__getitem__`` / ``fsck`` — the query surface.

The core property test lives here: random predicates x every scheme x
mixed-scheme manifests, always compared bit-for-bit against the dense NumPy
reference, with push-down on and off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset, FsckReport, ScanResult
from repro.compression.registry import available_schemes
from repro.exec.predicates import COMPARE_OPS, Compare

ALL_SCHEMES = available_schemes()


def quantised(rng, rows, cols=6):
    return rng.choice([0.0, 0.5, 1.0, 2.5], size=(rows, cols), p=(0.5, 0.2, 0.2, 0.1))


def random_predicate(rng, cols):
    ops = list(COMPARE_OPS)
    values = (0.0, 0.5, 1.0, 2.5)

    def leaf():
        return Compare(int(rng.integers(cols)), ops[rng.integers(len(ops))],
                       values[rng.integers(len(values))])

    predicate = leaf()
    for _ in range(int(rng.integers(0, 3))):
        other = leaf()
        predicate = (predicate & other) if rng.integers(2) else (predicate | ~other)
    return predicate


class _EvalDense:
    def __init__(self, dense):
        self.dense = dense

    def compare(self, col, op, value):
        return COMPARE_OPS[op](self.dense[:, col], value)


@pytest.fixture(scope="module")
def quantised_features():
    rng = np.random.default_rng(17)
    features = quantised(rng, rows=160)
    labels = rng.integers(0, 2, size=160).astype(np.float64)
    return features, labels


def _make(tmp_path, features, labels, scheme, batch=40):
    return Dataset.create(
        tmp_path / "ds", features, labels, scheme=scheme, batch_size=batch,
        shuffle=False, workers=1,
    )


class TestScanProperty:
    """Random predicates x schemes x push-down modes == dense reference."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_per_scheme_matches_dense(self, tmp_path, quantised_features, scheme):
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, scheme)
        rng = np.random.default_rng(hash(scheme) % 2**32)
        for _ in range(4):
            predicate = random_predicate(rng, features.shape[1])
            expected = predicate.evaluate(_EvalDense(features))
            for pushdown in (True, False):
                result = dataset.scan(where=predicate, pushdown=pushdown)
                np.testing.assert_array_equal(result.rows, features[expected])
                np.testing.assert_array_equal(result.row_ids, np.flatnonzero(expected))

    def test_mixed_scheme_manifest(self, tmp_path, quantised_features):
        features, labels = quantised_features
        schemes = [ALL_SCHEMES[i % len(ALL_SCHEMES)] for i in range(8)]
        dataset = Dataset.create(
            tmp_path / "mixed", features, labels, scheme=schemes, batch_size=20,
            shuffle=False, workers=1,
        )
        assert dataset.is_mixed if hasattr(dataset, "is_mixed") else True
        rng = np.random.default_rng(99)
        for _ in range(6):
            predicate = random_predicate(rng, features.shape[1])
            expected = predicate.evaluate(_EvalDense(features))
            result = dataset.scan(where=predicate)
            np.testing.assert_array_equal(result.rows, features[expected])
        assert len(result.schemes) > 1
        assert result.pushdown_shards + result.fallback_shards == 8

    def test_textual_where_and_projection(self, tmp_path, quantised_features):
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, "DVI")
        result = dataset.scan(where="c0 == 0.5 or c2 > 1", columns=[4, 1])
        mask = (features[:, 0] == 0.5) | (features[:, 2] > 1)
        np.testing.assert_array_equal(result.rows, features[mask][:, [4, 1]])
        assert result.columns == [4, 1]

    def test_limit_and_counters(self, tmp_path, quantised_features):
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, "CVI")
        result = dataset.scan(where="c1 >= 0.5", limit=7)
        mask = features[:, 1] >= 0.5
        np.testing.assert_array_equal(result.rows, features[mask][:7])
        assert result.n_rows_matched == 7
        assert isinstance(result, ScanResult)

    def test_aggregates_match_numpy(self, tmp_path, quantised_features):
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, "auto")
        mask = features[:, 0] >= 0.5
        kept = features[mask]
        result = dataset.scan(where="c0 >= 0.5", agg="count,sum:c3,mean:c3,min:c1,max:c1")
        assert result.aggregates["count"] == int(mask.sum())
        assert np.isclose(result.aggregates["sum(c3)"], kept[:, 3].sum())
        assert np.isclose(result.aggregates["mean(c3)"], kept[:, 3].mean())
        assert result.aggregates["min(c1)"] == kept[:, 1].min()
        assert result.aggregates["max(c1)"] == kept[:, 1].max()


class TestNonFiniteCells:
    """A NaN or ±inf in *any* column must not change what push-down answers.

    TOC used to extract a column as ``A @ e_col``: ``0 * NaN`` and ``0 * inf``
    are NaN, which leaked into every other column of the row, so rows went
    missing from counts and sums; DVI's sum multiplied the dictionary values
    absent from the kept rows by their zero frequency the same way.
    """

    WHERE = "c0 >= 0.5 or c2 < 0"
    AGG = "count,sum:c1,sum:c2,mean:c2,min:c3,max:c3,min:c1,max:c2"

    @pytest.fixture(scope="class")
    def features(self):
        rng = np.random.default_rng(0)
        features = np.round(rng.random((40, 4)), 1)
        features[7, 3] = np.nan
        features[9, 2] = np.inf
        features[22, 1] = -np.inf
        features[31, 0] = np.nan
        return features

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_pushdown_equals_the_dense_path(self, tmp_path, features, scheme):
        dataset = Dataset.create(
            tmp_path / "ds", features, np.zeros(40), scheme=scheme, batch_size=10,
            shuffle=False, workers=1,
        )
        with np.errstate(invalid="ignore"):
            pushed = dataset.scan(where=self.WHERE, agg=self.AGG)
            dense = dataset.scan(where=self.WHERE, agg=self.AGG, pushdown=False)
            selected = dataset.scan(where=self.WHERE, columns=[3, 1, 2])
            selected_dense = dataset.scan(where=self.WHERE, columns=[3, 1, 2], pushdown=False)
        mask = (features[:, 0] >= 0.5) | (features[:, 2] < 0)
        assert pushed.aggregates["count"] == dense.aggregates["count"] == int(mask.sum())
        for name, value in dense.aggregates.items():
            np.testing.assert_allclose(pushed.aggregates[name], value, equal_nan=True)
        np.testing.assert_array_equal(selected.rows, selected_dense.rows)
        np.testing.assert_array_equal(selected.rows, features[mask][:, [3, 1, 2]])
        np.testing.assert_array_equal(selected.row_ids, np.flatnonzero(mask))


class TestTake:
    def test_take_matches_source_rows(self, tmp_path, quantised_features):
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, "auto")
        ids = [0, 159, 40, 39, 7, 7]  # shard boundaries, duplicates, disorder
        np.testing.assert_array_equal(dataset.take(ids), features[ids])

    def test_take_empty_and_ndarray_input(self, tmp_path, quantised_features):
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, "CVI")
        assert dataset.take([]).shape == (0, features.shape[1])
        ids = np.array([10, 90])
        np.testing.assert_array_equal(dataset.take(ids), features[ids])

    def test_take_out_of_range(self, tmp_path, quantised_features):
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, "DEN")
        with pytest.raises(IndexError):
            dataset.take([features.shape[0]])
        with pytest.raises(IndexError):
            dataset.take([-1])

    def test_getitem_int_slice_list(self, tmp_path, quantised_features):
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, "auto")
        np.testing.assert_array_equal(dataset[5], features[5])
        np.testing.assert_array_equal(dataset[-1], features[-1])
        np.testing.assert_array_equal(dataset[10:70:7], features[10:70:7])
        np.testing.assert_array_equal(dataset[[3, 80]], features[[3, 80]])


class TestFsck:
    def test_clean_directory(self, tmp_path, quantised_features):
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, "TOC")
        report = dataset.fsck()
        assert isinstance(report, FsckReport)
        assert report.clean
        assert report.orphans == () and report.missing == ()

    def test_orphans_swept_but_foreign_files_kept(self, tmp_path, quantised_features):
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, "TOC")
        stale = dataset.path / "shard-00001.g4.bin"
        stale.write_bytes(b"interrupted compact")
        tmp_manifest = dataset.path / ".manifest.json.tmp42"
        tmp_manifest.write_bytes(b"{}")
        foreign = dataset.path / "README.txt"
        foreign.write_text("not ours")

        dry = dataset.fsck(remove=False)
        assert set(dry.orphans) == {"shard-00001.g4.bin", ".manifest.json.tmp42"}
        assert dry.removed == ()
        assert dry.bytes_reclaimable > 0
        assert stale.exists()

        swept = dataset.fsck()
        assert set(swept.removed) == set(dry.orphans)
        assert not stale.exists() and not tmp_manifest.exists()
        assert foreign.exists()  # unknown files are never touched
        assert dataset.fsck().clean
        # The dataset still reads fine afterwards.
        assert dataset.scan(agg="count").aggregates["count"] == features.shape[0]

    def test_missing_referenced_shard_reported_not_repaired(
        self, tmp_path, quantised_features
    ):
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, "DEN")
        victim = dataset.sharded.shards[1].filename
        (dataset.path / victim).unlink()
        report = dataset.fsck()
        assert report.missing == (victim,)
        assert not report.clean

    def test_interrupted_compact_leftovers(self, tmp_path, quantised_features):
        """A staged-but-unpublished generation is exactly what fsck removes."""
        features, labels = quantised_features
        dataset = _make(tmp_path, features, labels, "DEN")
        # Stage a re-encode without rewriting the manifest — a mid-compact crash.
        sharded = dataset.sharded
        old_name = sharded.shards[0].filename
        payload = (dataset.path / old_name).read_bytes()
        sharded.stage_shard(0, payload, "DEN")
        staged_name = sharded.shards[0].filename
        assert staged_name != old_name
        # A reopened handle (the manifest still names the old file) sees the
        # staged generation as the orphan.
        reopened = Dataset.open(dataset.path)
        report = reopened.fsck()
        assert staged_name in report.removed
        assert reopened.scan(agg="count").aggregates["count"] == features.shape[0]
