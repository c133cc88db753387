"""Zero-copy mmap reads: map_file and the shard wiring that always uses it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.registry import available_schemes
from repro.engine.shards import ShardedDataset
from repro.storage import mmapio
from repro.storage.buffer_pool import BufferPool


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


class TestShardIntegration:
    @pytest.fixture()
    def dataset(self, tmp_path, rng):
        batches = []
        for _ in range(3):
            dense = np.round(rng.random((20, 6)) * (rng.random((20, 6)) < 0.5), 1)
            batches.append((dense, rng.integers(0, 2, size=20).astype(np.float64)))
        return ShardedDataset.create(tmp_path / "ds", batches, "TOC", workers=1)

    def test_read_payload_is_a_mapping(self, dataset):
        assert isinstance(dataset.read_payload(0), memoryview)

    def test_pool_loaders_map_the_shard_files(self, dataset):
        pool = BufferPool(budget_bytes=10 * dataset.total_payload_bytes())
        dataset.attach(pool)
        for shard in dataset.shards:
            assert isinstance(pool.read(shard.batch_id), memoryview)

    @pytest.mark.parametrize("scheme_name", available_schemes())
    def test_mapped_and_copied_payloads_decode_bit_equal(self, tmp_path, rng, scheme_name):
        dense = np.round(rng.random((30, 7)) * (rng.random((30, 7)) < 0.4), 1)
        labels = np.zeros(30)
        dataset = ShardedDataset.create(
            tmp_path / scheme_name, [(dense, labels)], scheme_name, workers=1
        )
        mapped = dataset.read_payload(0)
        from_map = dataset.decode(0, mapped).to_dense()
        from_copy = dataset.decode(0, bytes(mapped)).to_dense()
        assert from_map.tobytes() == from_copy.tobytes()
        np.testing.assert_allclose(from_map, dense, rtol=1e-9)
