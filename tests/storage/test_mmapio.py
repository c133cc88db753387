"""Shard reads split by access pattern: read_file for one pass, map_file to keep.

One-pass readers (the trainer's pool, scans, ``take``, compaction) read a
shard into bytes the process owns; the feature store, which keeps each
shard for its lifetime, is the one reader that maps it.
"""

from __future__ import annotations

import mmap

import numpy as np
import pytest

from repro.api import Dataset
from repro.compression.registry import available_schemes
from repro.data.registry import DATASET_PROFILES
from repro.engine.trainer import OutOfCoreTrainer
from repro.ml.models import LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig
from repro.obs import metrics as obs_metrics
from repro.serve.feature_store import FeatureStore
from repro.storage import mmapio


class TestReadFile:
    def test_returns_a_read_only_view_of_owned_bytes(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"hello shard")
        view = mmapio.read_file(path)
        assert isinstance(view, memoryview) and view.readonly
        assert not isinstance(view.obj, mmap.mmap)
        assert view == b"hello shard"
        assert bytes(view[6:]) == b"shard"
        assert not np.frombuffer(view, dtype=np.uint8).flags.writeable

    def test_empty_file_reads_to_empty_view(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(mmapio.read_file(path)) == 0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            mmapio.read_file(tmp_path / "nope.bin")

    def test_short_reads_are_read_on_to_the_end(self, tmp_path, monkeypatch):
        path = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 10
        path.write_bytes(payload)
        read = mmapio.os.read
        monkeypatch.setattr(mmapio.os, "read", lambda fd, n: read(fd, min(n, 1000)))
        assert mmapio.read_file(path) == payload

    def test_counts_reads_and_bytes(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(300))
        names = ("storage.reads", "storage.bytes_read", "storage.mmap.maps")
        before = [obs_metrics.counter(name).value for name in names]
        mmapio.read_file(path)
        mmapio.read_file(path)
        after = [obs_metrics.counter(name).value for name in names]
        assert [a - b for a, b in zip(after, before)] == [2, 600, 0]


class TestMapFile:
    def test_returns_memoryview_with_file_contents(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"hello shard")
        view = mmapio.map_file(path)
        assert isinstance(view, memoryview)
        assert view == b"hello shard"
        assert bytes(view[6:]) == b"shard"

    def test_empty_file_maps_to_empty_view(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        view = mmapio.map_file(path)
        assert isinstance(view, memoryview)
        assert len(view) == 0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            mmapio.map_file(tmp_path / "nope.bin")

    def test_view_outlives_local_scope(self, tmp_path):
        """The memoryview keeps the underlying mapping alive by itself."""
        path = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 64
        path.write_bytes(payload)

        def make():
            return mmapio.map_file(path)

        view = make()
        assert np.array_equal(
            np.frombuffer(view, dtype=np.uint8),
            np.frombuffer(payload, dtype=np.uint8),
        )


class TestPublishUnderALiveMapping:
    def test_existing_view_keeps_the_old_contents(self, tmp_path):
        path = tmp_path / "shard-00000.bin"
        old = bytes(range(256)) * 256  # 64 KB: many pages past the new end of file
        path.write_bytes(old)
        view = mmapio.map_file(path)
        mmapio.publish_file(path, b"short")
        assert bytes(view) == old  # reads every old page: no SIGBUS
        assert path.read_bytes() == b"short"

    def test_publish_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "shard-00001.bin"
        mmapio.publish_file(path, b"first")
        mmapio.publish_file(path, b"second")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shard-00001.bin"]
        assert bytes(mmapio.map_file(path)) == b"second"


def _maps() -> int:
    return obs_metrics.counter("storage.mmap.maps").value


class TestShardIntegration:
    @pytest.fixture()
    def dataset(self, tmp_path):
        x, y = DATASET_PROFILES["census"].classification(400, seed=2)
        return Dataset.create(
            tmp_path / "ds", x, y, scheme="TOC", batch_size=50, shuffle=False, workers=1
        )

    def test_one_pass_reads_take_no_mapping(self, dataset):
        before = _maps()
        payloads = [dataset.read_payload(i) for i in range(len(dataset))]
        dataset.take(range(0, dataset.n_examples, 7))
        dataset.scan(columns=[0, 1], where="c0 > 0")
        assert _maps() == before
        for payload, shard in zip(payloads, dataset.shards):
            assert not isinstance(payload.obj, mmap.mmap)
            assert len(payload) == shard.nbytes

    def test_a_cyclic_epoch_keeps_owned_bytes_within_the_pool_budget(self, dataset):
        config = GradientDescentConfig(batch_size=50, epochs=1, learning_rate=0.1, shuffle_seed=0)
        trainer = OutOfCoreTrainer(config, budget_ratio=0.25)
        pool = trainer.attach(dataset)
        before = _maps()
        trainer.train(LogisticRegressionModel(dataset.n_cols, seed=0))
        assert _maps() == before
        assert pool.stats.misses == len(dataset) and pool.stats.evictions > 0
        assert 0 < pool.cached_bytes <= pool.budget_bytes
        resident = [pool.read(key) for key in pool.resident_keys]
        assert sum(len(p) for p in resident) == pool.cached_bytes
        assert not any(isinstance(p.obj, mmap.mmap) for p in resident)

    def test_the_feature_store_maps_each_shard_once(self, dataset):
        store = FeatureStore.open(dataset.path)
        before = _maps()
        for _ in range(2):
            store.get_rows(range(dataset.n_examples))
        assert _maps() - before == len(dataset)
        assert all(isinstance(view.obj, mmap.mmap) for view in store._mapped)

    @pytest.mark.parametrize("scheme_name", available_schemes())
    def test_mapped_and_copied_payloads_decode_bit_equal(self, tmp_path, rng, scheme_name):
        dense = np.round(rng.random((30, 7)) * (rng.random((30, 7)) < 0.4), 1)
        labels = np.zeros(30)
        dataset = Dataset.create(
            tmp_path / scheme_name, [(dense, labels)], scheme=scheme_name, workers=1
        )
        mapped = dataset.map_payload(0)
        assert isinstance(mapped.obj, mmap.mmap)
        from_map = dataset.decode(0, mapped).to_dense()
        from_read = dataset.decode(0, dataset.read_payload(0)).to_dense()
        from_copy = dataset.decode(0, bytes(mapped)).to_dense()
        assert from_map.tobytes() == from_copy.tobytes() == from_read.tobytes()
        np.testing.assert_allclose(from_map, dense, rtol=1e-9)
