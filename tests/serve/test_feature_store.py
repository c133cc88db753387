"""Tests for row lookups over a sharded dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.registry import DATASET_PROFILES
from repro.engine.shards import ShardedDataset
from repro.obs import metrics as obs_metrics
from repro.serve import feature_store
from repro.serve.feature_store import FeatureStore


@pytest.fixture(scope="module")
def shard_fixture(tmp_path_factory):
    """A small sharded dataset plus the dense rows in shard order."""
    features, labels = DATASET_PROFILES["census"].classification(200, seed=11)
    split = np.array_split(np.arange(features.shape[0]), 5)
    batches = [(features[idx], labels[idx]) for idx in split]
    directory = tmp_path_factory.mktemp("store-shards")
    ShardedDataset.create(directory, batches, "TOC", workers=1)
    dense = np.vstack([x for x, _ in batches])
    all_labels = np.concatenate([y for _, y in batches])
    return directory, dense, all_labels


class TestGeometry:
    def test_length_and_width(self, shard_fixture):
        directory, dense, _ = shard_fixture
        store = FeatureStore.open(directory)
        assert len(store) == dense.shape[0]
        assert store.n_cols == dense.shape[1]

    def test_locate_maps_boundaries(self, shard_fixture):
        directory, dense, _ = shard_fixture
        store = FeatureStore.open(directory)
        assert store.locate(0) == (0, 0)
        first_rows = store.dataset.shards[0].n_rows
        assert store.locate(first_rows - 1) == (0, first_rows - 1)
        assert store.locate(first_rows) == (1, 0)

    def test_locate_rows_is_locate_for_a_whole_request(self, shard_fixture):
        directory, dense, _ = shard_fixture
        store = FeatureStore.open(directory)
        ids = [199, 0, 40, 39, 40, 121]
        batch_ids, local_rows = store.locate_rows(ids)
        assert list(zip(batch_ids.tolist(), local_rows.tolist())) == [store.locate(i) for i in ids]
        assert sum(store.shard_rows(b) for b in range(5)) == len(store)
        empty = store.locate_rows([])
        assert empty[0].size == empty[1].size == 0

    @pytest.mark.parametrize("bad", [-1, 200, 10**12])
    def test_every_lookup_names_the_row_out_of_range(self, shard_fixture, bad):
        directory, _, _ = shard_fixture
        store = FeatureStore.open(directory)
        message = rf"row {bad} out of range \[0, 200\)"
        for lookup in (store.locate, store.get_row):
            with pytest.raises(IndexError, match=message):
                lookup(bad)
        for lookup in (store.locate_rows, store.get_rows, store.get_labels):
            with pytest.raises(IndexError, match=message):
                lookup([3, bad, 7])
        assert store.stats.payload_parses == 0  # refused before any shard was read

    def test_out_of_range_rejected(self, shard_fixture):
        directory, dense, _ = shard_fixture
        store = FeatureStore.open(directory)
        with pytest.raises(IndexError):
            store.get_row(dense.shape[0])
        with pytest.raises(IndexError):
            store.get_row(-1)


class TestRowAccess:
    def test_every_row_matches_dense(self, shard_fixture):
        directory, dense, _ = shard_fixture
        store = FeatureStore.open(directory)
        for row_id in range(dense.shape[0]):
            np.testing.assert_allclose(store.get_row(row_id), dense[row_id])

    def test_get_rows_preserves_order_and_duplicates(self, shard_fixture):
        directory, dense, _ = shard_fixture
        store = FeatureStore.open(directory)
        ids = [170, 3, 3, 99, 0, 170]
        np.testing.assert_allclose(store.get_rows(ids), dense[ids])

    def test_labels_match(self, shard_fixture):
        directory, _, labels = shard_fixture
        store = FeatureStore.open(directory)
        ids = [0, 57, 123, 199]
        np.testing.assert_array_equal(store.get_labels(ids), labels[ids])

    def test_labels_keep_request_order_and_duplicates(self, shard_fixture):
        directory, _, labels = shard_fixture
        store = FeatureStore.open(directory)
        ids = [150, 3, 150, 41, 0, 199]
        np.testing.assert_array_equal(store.get_labels(ids), labels[ids])
        assert store.get_labels([]).shape == (0,)

    def test_returned_rows_are_copies(self, shard_fixture):
        directory, dense, _ = shard_fixture
        store = FeatureStore.open(directory)
        row = store.get_row(5)
        row[:] = -1234.0
        np.testing.assert_allclose(store.get_row(5), dense[5])


class TestCaching:
    def test_distinct_rows_of_one_shard_decode_once_per_lookup(self, shard_fixture):
        directory, dense, _ = shard_fixture
        store = FeatureStore.open(directory)
        np.testing.assert_allclose(store.get_rows([0, 1, 2]), dense[[0, 1, 2]])
        # One shard touched, three rows decoded: one row_slice call.
        assert store.stats.shard_decodes == 1
        assert store.stats.row_misses == 3

    def test_group_lookup_decodes_each_shard_once(self, shard_fixture):
        directory, dense, _ = shard_fixture
        store = FeatureStore.open(directory)
        store.get_rows(range(dense.shape[0]))  # every row, all shards
        assert store.stats.shard_decodes == len(store.dataset.shards)

    def test_parsed_cache_skips_payload_reparse(self, shard_fixture):
        directory, _, _ = shard_fixture
        store = FeatureStore.open(directory)
        store.get_row(0)
        store.get_row(1)  # each row is decoded again, but the shard is parsed
        store.get_row(2)
        assert store.stats.shard_decodes == 3  # three row_slice calls...
        assert store.stats.payload_parses == 1  # ...one payload parse

    def test_each_shard_is_mapped_once_for_the_store_lifetime(self, shard_fixture, monkeypatch):
        directory, dense, _ = shard_fixture
        monkeypatch.setattr(feature_store, "PARSED_CACHE_SHARDS", 1)
        store = FeatureStore.open(directory)
        maps = obs_metrics.counter("storage.mmap.maps")
        before = maps.value
        for _ in range(2):  # a one-shard parsed LRU: every shard is parsed twice
            for row_id in range(0, dense.shape[0], 40):
                np.testing.assert_allclose(store.get_row(row_id), dense[row_id])
        shards = len(store.dataset.shards)
        assert store.stats.payload_parses == 2 * shards
        assert maps.value - before == shards

    def test_byte_block_shards_inflate_once_per_residency(self, tmp_path, rng):
        """Gzip shards cache the inflated block: later reads must not re-inflate."""
        features = np.round(rng.normal(size=(60, 10)), 1)
        ShardedDataset.create(tmp_path, [(features, np.zeros(60))], "Gzip", workers=1)
        store = FeatureStore.open(tmp_path)
        for row_id in (0, 10, 20, 30):
            np.testing.assert_allclose(store.get_row(row_id), features[row_id])
        assert store.stats.payload_parses == 1  # one inflate for four reads


class TestMixedSchemeStore:
    def test_rows_served_across_heterogeneous_shards(self, tmp_path, rng):
        """A scheme="auto"-style directory serves rows shard by shard."""
        sparse = rng.normal(size=(40, 12)) * (rng.random((40, 12)) < 0.1)
        dense = rng.normal(size=(40, 12))
        batches = [
            (sparse, np.zeros(40)),
            (dense, np.ones(40)),
        ]
        ShardedDataset.create(tmp_path, batches, ["TOC", "DEN"], workers=1)
        store = FeatureStore.open(tmp_path)
        expected = np.vstack([sparse, dense])
        np.testing.assert_allclose(store.get_rows([0, 39, 40, 79]), expected[[0, 39, 40, 79]])
        np.testing.assert_allclose(store.get_rows(range(30, 50)), expected[30:50])
