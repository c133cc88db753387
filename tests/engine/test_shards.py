"""Tests for the shard encode pipeline and the on-disk shard store."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compression.registry import get_scheme
from repro.data.registry import DATASET_PROFILES
from repro.engine import shards
from repro.engine.encode import (
    AUTO_SCHEME,
    encode_batches,
    fan_out,
    resolve_scheme_name,
    resolve_workers,
    usable_cpus,
)
from repro.engine.shards import (
    LABELS_NAME,
    MANIFEST_NAME,
    MIXED_SCHEME,
    Dataset,
    read_extent,
)
from repro.obs import trace as obs_trace
from repro.storage.buffer_pool import BufferPool


@pytest.fixture(scope="module")
def small_batches():
    features, labels = DATASET_PROFILES["census"].classification(240, seed=7)
    split = np.array_split(np.arange(features.shape[0]), 4)
    return [(features[idx], labels[idx]) for idx in split]


@pytest.fixture(scope="module")
def mixed_batches():
    """Batches whose densities differ enough that one scheme cannot win all."""
    rng = np.random.default_rng(42)
    sparse = rng.normal(size=(80, 24)) * (rng.random((80, 24)) < 0.05)
    dense = rng.normal(size=(80, 24))
    labels = np.zeros(80)
    return [(sparse, labels), (dense, labels), (sparse * 2.0, labels)]


class TestEncodePipeline:
    def test_serial_encode_round_trips(self, small_batches):
        encoded, kind = encode_batches([x for x, _ in small_batches], "TOC", workers=1)
        assert kind == "serial"
        scheme = get_scheme("TOC")
        for enc, (features, _) in zip(encoded, small_batches):
            decoded = scheme.decompress_bytes(enc.payload).to_dense()
            np.testing.assert_allclose(decoded, features)

    def test_process_payloads_identical(self, small_batches, pool_spy):
        feats = [x for x, _ in small_batches]
        serial, _ = encode_batches(feats, "TOC", workers=1)
        procs, kind = encode_batches(feats, "TOC", workers=2)
        assert kind == "process" and len(pool_spy) == 1
        assert [e.payload for e in serial] == [e.payload for e in procs]
        assert [e.batch_id for e in procs] == list(range(len(feats)))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            encode_batches([], "TOC")

    def test_worker_resolution(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        # Pinned to one CPU of a big machine: a pool could not run in parallel.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert usable_cpus() == resolve_workers(None) == 1
        assert fan_out(abs, [-1, 2]) == ([1, 2], "serial")
        assert fan_out(abs, [-1, 2], workers=4) == ([1, 2], "serial")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert usable_cpus() == resolve_workers(None) == 3
        # No affinity API (macOS, Windows): fall back to the machine's count.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert usable_cpus() == 64


class TestEncodeProvenance:
    """What the manifest and the span record is what ran, never what was asked."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recorded_kind_matches_whether_a_pool_ran(
        self, tmp_path, small_batches, pool_spy, workers
    ):
        obs_trace.clear()
        dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=workers)
        ran = "process" if pool_spy else "serial"
        assert ran == ("process" if workers > 1 else "serial")
        assert dataset.encode_executor == ran
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["encode_executor"] == ran
        (span,) = [s for s in obs_trace.spans() if s["name"] == "engine.encode"]
        assert span["labels"]["executor"] == ran

        del pool_spy[:]
        dataset.append(small_batches[:1], workers=workers)
        ran = "process" if pool_spy else "serial"
        assert Dataset.open(tmp_path).encode_executor == ran

    def test_a_one_batch_append_enters_no_pool(self, tmp_path, small_batches, pool_spy):
        # Default workers on a two-CPU box, but one batch is one task.
        dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        features, labels = small_batches[0]
        (added,) = dataset.append(features, labels)
        assert added.n_rows == features.shape[0]
        assert pool_spy == []
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["encode_executor"] == "serial"

    def test_a_thread_era_manifest_still_opens(self, tmp_path, small_batches):
        Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["encode_executor"] = "thread"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        reopened = Dataset.open(tmp_path)
        assert reopened.encode_executor == "thread"
        np.testing.assert_allclose(reopened.decode(0).to_dense(), small_batches[0][0])


class TestAutoSchemeEncode:
    def test_fixed_names_pass_through(self, mixed_batches):
        assert resolve_scheme_name("TOC", mixed_batches[0][0]) == "TOC"
        assert resolve_scheme_name("DEN", mixed_batches[1][0]) == "DEN"

    def test_auto_resolves_per_batch(self, mixed_batches):
        sparse, dense = mixed_batches[0][0], mixed_batches[1][0]
        assert resolve_scheme_name(AUTO_SCHEME, sparse) != resolve_scheme_name(
            AUTO_SCHEME, dense
        )

    def test_auto_encode_records_chosen_schemes(self, mixed_batches):
        encoded, _ = encode_batches([x for x, _ in mixed_batches], AUTO_SCHEME, workers=1)
        schemes = [e.scheme for e in encoded]
        assert AUTO_SCHEME not in schemes  # every shard resolved to a real scheme
        assert len(set(schemes)) > 1  # the mix genuinely splits
        # Each payload round-trips through the scheme recorded for it.
        for enc, (features, _) in zip(encoded, mixed_batches):
            decoded = get_scheme(enc.scheme).decompress_bytes(enc.payload).to_dense()
            np.testing.assert_allclose(decoded, features)

    def test_auto_is_deterministic_across_executors(self, mixed_batches, pool_spy):
        feats = [x for x, _ in mixed_batches]
        serial, _ = encode_batches(feats, AUTO_SCHEME, workers=1)
        pooled, kind = encode_batches(feats, AUTO_SCHEME, workers=2)
        assert kind == "process" and len(pool_spy) == 1
        assert [e.scheme for e in serial] == [e.scheme for e in pooled]
        assert [e.payload for e in serial] == [e.payload for e in pooled]

    def test_explicit_per_batch_schemes(self, mixed_batches):
        feats = [x for x, _ in mixed_batches]
        encoded, _ = encode_batches(feats, ["TOC", "DEN", "CSR"], workers=1)
        assert [e.scheme for e in encoded] == ["TOC", "DEN", "CSR"]

    def test_per_batch_scheme_count_mismatch_rejected(self, mixed_batches):
        feats = [x for x, _ in mixed_batches]
        with pytest.raises(ValueError, match="scheme names"):
            encode_batches(feats, ["TOC"], workers=1)


class TestDataset:
    def test_create_open_round_trip(self, tmp_path, small_batches):
        created = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        reopened = Dataset.open(tmp_path)
        assert reopened.scheme == "TOC"
        assert len(reopened) == len(small_batches)
        assert reopened.payload_sizes() == created.payload_sizes()
        assert reopened.n_examples == sum(x.shape[0] for x, _ in small_batches)

        scheme = get_scheme("TOC")
        for batch_id, (features, labels) in enumerate(small_batches):
            decoded = scheme.decompress_bytes(reopened.read_payload(batch_id)).to_dense()
            np.testing.assert_allclose(decoded, features)
            np.testing.assert_array_equal(reopened.labels_for(batch_id), labels)

    def test_open_missing_directory_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Dataset.open(tmp_path / "nope")

    def test_attach_serves_bytes_through_pool(self, tmp_path, small_batches):
        dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        pool = BufferPool(budget_bytes=10 * dataset.total_payload_bytes())
        dataset.attach(pool)
        for batch_id in range(len(dataset)):
            assert pool.read(batch_id) == dataset.read_payload(batch_id)
        # Everything fits: the second epoch is all hits.
        for batch_id in range(len(dataset)):
            pool.read(batch_id)
        assert pool.stats.hits == len(dataset)
        assert pool.stats.misses == len(dataset)

    def test_pool_smaller_than_shard_set_evicts_and_rereads(self, tmp_path, small_batches):
        dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        sizes = dataset.payload_sizes()
        # Room for roughly two shards: the cyclic scan must keep missing.
        pool = BufferPool(budget_bytes=sizes[0] + sizes[1] + 1)
        dataset.attach(pool)
        epochs = 3
        for _ in range(epochs):
            for batch_id in range(len(dataset)):
                assert pool.read(batch_id) == dataset.read_payload(batch_id)
        assert pool.stats.evictions > 0
        assert pool.stats.misses > len(dataset)  # later epochs still miss
        assert pool.cached_bytes <= pool.budget_bytes
        assert pool.stats.bytes_read_from_disk > dataset.total_payload_bytes()

    def test_manifest_records_scheme_per_shard(self, tmp_path, small_batches):
        import json

        Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format_version"] == 2
        assert manifest["scheme"] == "TOC"
        assert all(row["scheme"] == "TOC" for row in manifest["shards"])

    def test_auto_create_open_round_trip(self, tmp_path, mixed_batches):
        created = Dataset.create(tmp_path, mixed_batches, scheme=AUTO_SCHEME, workers=1)
        assert created.scheme == MIXED_SCHEME
        assert sum(created.scheme_counts().values()) == len(mixed_batches)

        reopened = Dataset.open(tmp_path)
        assert reopened.requested_scheme == AUTO_SCHEME
        assert [s.scheme for s in reopened.shards] == [s.scheme for s in created.shards]
        for batch_id, (features, _) in enumerate(mixed_batches):
            decoded = reopened.decode(batch_id)
            assert decoded.scheme_name == reopened.shards[batch_id].scheme
            np.testing.assert_allclose(decoded.to_dense(), features)

    def test_decode_parses_with_the_registered_class(self, tmp_path, small_batches):
        dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        assert all(type(dataset.decode(i)) is get_scheme("TOC") for i in range(len(dataset)))

    def test_append_extends_manifest_and_labels(self, tmp_path, small_batches):
        dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        n_before = len(dataset)
        rng = np.random.default_rng(9)
        extra_x = rng.random((40, small_batches[0][0].shape[1]))
        extra_y = rng.integers(0, 2, size=40).astype(np.float64)
        added = dataset.append([(extra_x, extra_y)], workers=1)

        assert [info.batch_id for info in added] == [n_before]
        assert added[0].scheme == "TOC"  # default: the dataset's requested scheme
        reopened = Dataset.open(tmp_path)
        assert len(reopened) == n_before + 1
        np.testing.assert_allclose(reopened.decode(n_before).to_dense(), extra_x)
        np.testing.assert_array_equal(reopened.labels_for(n_before), extra_y)

    def test_append_rejects_mismatched_width(self, tmp_path, small_batches):
        dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        bad = np.zeros((4, small_batches[0][0].shape[1] + 1))
        with pytest.raises(ValueError, match="columns"):
            dataset.append([(bad, np.zeros(4))], workers=1)

    @pytest.mark.parametrize("crashed_at", [LABELS_NAME, MANIFEST_NAME])
    def test_a_crashed_append_leaves_the_dataset_as_it_was(
        self, tmp_path, small_batches, monkeypatch, crashed_at
    ):
        """The labels archive goes first and the manifest last: a crash before
        either rename reopens the old shards with the old labels."""
        from repro.storage import mmapio

        dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        n_before = len(dataset)
        replace = mmapio.os.replace

        def crash(src, dst):
            if Path(dst).name == crashed_at:
                raise OSError("crashed before the rename")
            replace(src, dst)

        monkeypatch.setattr(mmapio.os, "replace", crash)
        extra = (np.ones((10, small_batches[0][0].shape[1])), np.ones(10))
        with pytest.raises(OSError, match="crashed"):
            dataset.append([extra], workers=1)
        monkeypatch.undo()

        reopened = Dataset.open(tmp_path)
        assert len(reopened) == n_before
        for batch_id, (features, labels) in enumerate(small_batches):
            np.testing.assert_allclose(reopened.decode(batch_id).to_dense(), features)
            np.testing.assert_array_equal(reopened.labels_for(batch_id), labels)

    def test_create_and_append_leave_no_temporary_files(self, tmp_path, small_batches):
        dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        dataset.append(small_batches[:1], workers=1)
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_a_crashed_compaction_leaves_the_old_files_live(
        self, tmp_path, small_batches, monkeypatch, pin_calibration
    ):
        dataset = Dataset.create(tmp_path, small_batches, scheme="DEN", workers=1)
        pin_calibration(tmp_path, {"TOC": 1e-9})
        dense = dataset.decode(0).to_dense()
        publish = shards.publish_file

        def crash(path, payload):
            if path.name == MANIFEST_NAME:
                raise OSError("crashed before the manifest swap")
            publish(path, payload)

        monkeypatch.setattr(shards, "publish_file", crash)
        with pytest.raises(OSError, match="crashed"):
            dataset.compact(workers=1)
        monkeypatch.undo()

        # Crash window: the staged file exists but the manifest was not yet
        # swapped — readers still decode the OLD file with the OLD scheme.
        assert (tmp_path / "shard-00000.g1.bin").exists()
        crashed = Dataset.open(tmp_path)
        assert crashed.shards[0].scheme == "DEN"
        np.testing.assert_allclose(crashed.decode(0).to_dense(), dense)

        dataset.compact(workers=1)
        reopened = Dataset.open(tmp_path)
        assert reopened.shards[0].scheme == "TOC"
        assert reopened.shards[0].filename == "shard-00000.g1.bin"
        np.testing.assert_allclose(reopened.decode(0).to_dense(), dense)

    def test_each_rewrite_takes_the_next_generation_filename(
        self, tmp_path, small_batches, pin_calibration
    ):
        dataset = Dataset.create(tmp_path, small_batches, scheme="DEN", workers=1)
        pin_calibration(tmp_path, {"TOC": 1e-9})
        dataset.compact(workers=1)
        pin_calibration(tmp_path, {"CSR": 1e-9})
        dataset.compact(workers=1)
        assert dataset.shards[0].filename == "shard-00000.g2.bin"
        assert dataset.shards[0].scheme == "CSR"


#: Two handles on one directory: A appends shard 2, a store serves it, then
#: stale handle B appends its own shard 2 under the same filename.  The store
#: keeps answering from the mapping it took on first touch, which must still
#: be A's; a one-shard parsed LRU makes it re-parse shard 2 from that mapping.
_TWO_WRITERS = """
import sys
import numpy as np
from repro.data.registry import DATASET_PROFILES
from repro.engine.shards import Dataset
from repro.obs import metrics
from repro.serve import feature_store

root = sys.argv[1]
x, y = DATASET_PROFILES["census"].classification(902, seed=3)
Dataset.create(root, [(x[:300], y[:300]), (x[300:600], y[300:600])], scheme="TOC",
                      workers=1)
a, b = Dataset.open(root), Dataset.open(root)
a.append([(x[600:900], y[600:900])], workers=1)
feature_store.PARSED_CACHE_SHARDS = 1
store = feature_store.FeatureStore.open(root)
assert np.array_equal(store.get_row(600), x[600])
b.append([(x[900:], y[900:])], workers=1)
store.get_row(0)  # evicts parsed shard 2; its mapping stays
maps, parses = metrics.counter("storage.mmap.maps").value, store.stats.payload_parses
assert np.array_equal(store.get_rows(range(600, 900)), x[600:900]), "wrong rows"
assert store.stats.payload_parses == parses + 1  # re-parsed ...
assert metrics.counter("storage.mmap.maps").value == maps  # ... from the mapping it kept
assert len(bytes(store._mapped[2])) > 300  # touches every mapped page
print("ok")
"""


def test_stale_writer_never_rewrites_a_mapped_shard_in_place(tmp_path):
    src = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _TWO_WRITERS, str(tmp_path / "shards")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    # In place, the rewrite served wrong rows or died of SIGBUS (exit -7).
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_fsck_sweeps_an_unpublished_shard_payload(tmp_path, small_batches):
    dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
    leftover = tmp_path / ".shard-00004.bin.tmp"
    leftover.write_bytes(b"interrupted append")
    report = dataset.fsck()
    assert report.removed == (".shard-00004.bin.tmp",)
    assert not leftover.exists()


class TestManifestGeneration:
    def test_create_publishes_generation_one(self, tmp_path, small_batches):
        dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        assert dataset.generation == 1
        assert read_extent(tmp_path)[0] == 1
        assert Dataset.open(tmp_path).generation == 1

    def test_every_manifest_swap_bumps_the_generation(self, tmp_path, small_batches):
        dataset = Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        before = dataset.generation
        dataset.append([small_batches[0]], workers=1)
        assert dataset.generation == before + 1
        assert read_extent(tmp_path) == (before + 1, dataset.n_examples)
        dataset.append([small_batches[1]], workers=1)
        assert read_extent(tmp_path) == (before + 2, dataset.n_examples)

    def test_read_extent_without_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_extent(tmp_path)

    def test_pre_generation_manifest_reads_as_zero(self, tmp_path, small_batches):
        Dataset.create(tmp_path, small_batches, scheme="TOC", workers=1)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        del manifest["generation"]
        manifest_path.write_text(json.dumps(manifest))
        assert read_extent(tmp_path)[0] == 0
        assert Dataset.open(tmp_path).generation == 0
