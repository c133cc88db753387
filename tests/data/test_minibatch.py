"""Tests for mini-batch splitting and the shuffle-once discipline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.minibatch import split_minibatches


@pytest.fixture()
def data():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(103, 7))
    labels = rng.integers(0, 2, size=103).astype(np.float64)
    return features, labels


class TestSplitMinibatches:
    def test_batch_sizes(self, data):
        features, labels = data
        batches = split_minibatches(features, labels, batch_size=25)
        assert [bx.shape[0] for bx, _ in batches] == [25, 25, 25, 25, 3]

    def test_drop_last(self, data):
        features, labels = data
        batches = split_minibatches(features, labels, batch_size=25, drop_last=True)
        assert [bx.shape[0] for bx, _ in batches] == [25, 25, 25, 25]

    def test_all_rows_covered_exactly_once(self, data):
        features, labels = data
        batches = split_minibatches(features, labels, batch_size=20)
        stacked = np.vstack([bx for bx, _ in batches])
        assert stacked.shape == features.shape
        assert np.allclose(np.sort(stacked, axis=0), np.sort(features, axis=0))

    def test_labels_stay_aligned_with_features(self, data):
        features, labels = data
        # Make the label recoverable from the row so alignment is checkable.
        features = features.copy()
        features[:, 0] = labels
        batches = split_minibatches(features, labels, batch_size=30, seed=3)
        for bx, by in batches:
            assert np.array_equal(bx[:, 0], by)

    def test_shuffle_once_is_deterministic(self, data):
        features, labels = data
        a = split_minibatches(features, labels, batch_size=30, seed=5)
        b = split_minibatches(features, labels, batch_size=30, seed=5)
        for (ax, _), (bx, _) in zip(a, b):
            assert np.array_equal(ax, bx)

    def test_no_shuffle_preserves_order(self, data):
        features, labels = data
        batches = split_minibatches(features, labels, batch_size=50, shuffle=False)
        assert np.array_equal(batches[0][0], features[:50])

    def test_unlabeled_split(self, data):
        features, _ = data
        batches = split_minibatches(features, None, batch_size=40)
        assert all(by is None for _, by in batches)

    def test_invalid_batch_size_rejected(self, data):
        features, labels = data
        with pytest.raises(ValueError):
            split_minibatches(features, labels, batch_size=0)

    def test_mismatched_labels_rejected(self, data):
        features, labels = data
        with pytest.raises(ValueError):
            split_minibatches(features, labels[:-1], batch_size=10)

    def test_1d_features_rejected(self):
        with pytest.raises(ValueError):
            split_minibatches(np.ones(10), None, batch_size=2)


class TestIterMinibatchSlices:
    def test_slices_partition_all_rows(self):
        from repro.data.minibatch import iter_minibatch_slices

        slices = list(iter_minibatch_slices(103, 25, seed=4))
        assert [len(s) for s in slices] == [25, 25, 25, 25, 3]
        assert sorted(np.concatenate(slices)) == list(range(103))

    def test_matches_split_minibatches(self):
        from repro.data.minibatch import iter_minibatch_slices

        features = np.arange(120, dtype=np.float64).reshape(60, 2)
        batches = split_minibatches(features, batch_size=16, seed=9)
        slices = list(iter_minibatch_slices(60, 16, seed=9))
        assert len(batches) == len(slices)
        for (bx, _), idx in zip(batches, slices):
            assert np.array_equal(bx, features[idx])

    def test_drop_last_and_validation(self):
        from repro.data.minibatch import iter_minibatch_slices

        assert [len(s) for s in iter_minibatch_slices(10, 4, drop_last=True)] == [4, 4]
        with pytest.raises(ValueError):
            list(iter_minibatch_slices(0, 4))
        with pytest.raises(ValueError):
            list(iter_minibatch_slices(10, 0))

    def test_split_minibatches_keeps_empty_input_behaviour(self):
        # Zero rows returns an empty list (as before the slice refactor),
        # even though iter_minibatch_slices itself rejects n_rows == 0.
        assert split_minibatches(np.empty((0, 5))) == []
