"""Manifest format migration: v1 and v2 directories keep working, then become v3.

PR 1 wrote manifests with ``format_version: 1`` and one dataset-wide
``"scheme"`` key; v2 named a scheme per shard; both kept every label in one
``labels.npz``.  Format 3 appends each shard's labels to its file.  The old
formats must read unchanged — same shards, same decoder, bit-identical
training — because shard directories outlive the code that wrote them, and
their first write must leave one v3 directory with every payload byte kept.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import Estimator
from repro.data.registry import DATASET_PROFILES
from repro.engine import shards
from repro.engine.shards import LABELS_NAME, MANIFEST_NAME, Dataset
from repro.engine.trainer import OutOfCoreTrainer
from repro.ml.models import LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig
from tests.engine.legacy import (
    V2_FIXTURE,
    copy_v2_fixture,
    downgrade_manifest_to_v1,
    v2_fixture_batches,
)


@pytest.fixture(scope="module")
def batches():
    features, labels = DATASET_PROFILES["census"].classification(240, seed=7)
    split = np.array_split(np.arange(features.shape[0]), 4)
    return [(features[idx], labels[idx]) for idx in split]


@pytest.fixture()
def v2_dir(tmp_path) -> Path:
    return copy_v2_fixture(tmp_path / "v2")


def _fit_parameters(dataset: Dataset) -> np.ndarray:
    estimator = Estimator("logreg", epochs=2, seed=0)
    estimator.fit(dataset)
    return estimator.model.get_parameters()


def _payloads(directory: Path) -> list[bytes]:
    """Each shard's payload region, in batch order, as the manifest delimits it."""
    rows = json.loads((directory / MANIFEST_NAME).read_text())["shards"]
    return [(directory / row["filename"]).read_bytes()[: row["nbytes"]] for row in rows]


def _assert_holds(dataset: Dataset, batches) -> None:
    """``dataset`` holds exactly ``batches``: features through ``take``, label bits and dtype."""
    features = np.vstack([x for x, _ in batches])
    assert np.array_equal(dataset.take(range(features.shape[0])), features)
    for batch_id, (_, labels) in enumerate(batches):
        got = dataset.labels_for(batch_id)
        assert got.dtype == labels.dtype and got.shape == labels.shape
        assert got.tobytes() == labels.tobytes()


class TestManifestMigration:
    def test_v1_manifest_loads_with_per_shard_schemes(self, tmp_path, batches):
        Dataset.create(tmp_path, batches, scheme="TOC", workers=1)
        downgrade_manifest_to_v1(tmp_path)

        dataset = Dataset.open(tmp_path)
        assert dataset.scheme == "TOC"
        assert all(shard.scheme == "TOC" for shard in dataset.shards)
        for batch_id, (features, labels) in enumerate(batches):
            np.testing.assert_allclose(dataset.decode(batch_id).to_dense(), features)
            np.testing.assert_array_equal(dataset.labels_for(batch_id), labels)

    def test_v1_and_v3_train_identically(self, tmp_path, batches):
        """Same shards, different manifest generation: identical parameters."""
        v3_dir, v1_dir = tmp_path / "v3", tmp_path / "v1"
        Dataset.create(v3_dir, batches, scheme="TOC", workers=1)
        Dataset.create(v1_dir, batches, scheme="TOC", workers=1)
        downgrade_manifest_to_v1(v1_dir)

        config = GradientDescentConfig(batch_size=60, epochs=2, learning_rate=0.3)
        parameters = []
        for directory in (v3_dir, v1_dir):
            trainer = OutOfCoreTrainer(config, budget_ratio=0.5)
            trainer.attach(Dataset.open(directory))
            model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
            trainer.train(model)
            parameters.append(model.get_parameters())
        np.testing.assert_array_equal(parameters[0], parameters[1])

    def test_unknown_format_version_rejected(self, tmp_path, batches):
        Dataset.create(tmp_path, batches, scheme="TOC", workers=1)
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported shard format"):
            Dataset.open(tmp_path)


class TestTheV2Fixture:
    """Bytes the v2 writer really produced (``fixtures/v2_census``)."""

    def test_it_is_what_the_v2_writer_left(self):
        manifest = json.loads((V2_FIXTURE / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == 2
        assert [row["scheme"] for row in manifest["shards"]] == ["TOC", "TOC", "CVI"]
        assert (V2_FIXTURE / LABELS_NAME).is_file()

    def test_opens_with_its_rows_and_labels_bit_equal(self, v2_dir):
        _assert_holds(Dataset.open(v2_dir), v2_fixture_batches())

    def test_v3_payloads_are_the_v2_files_byte_for_byte(self, v2_dir, tmp_path):
        fresh = Dataset.create(
            tmp_path / "v3", v2_fixture_batches(), scheme=["TOC", "TOC", "CVI"], workers=1
        )
        v2_files = [(V2_FIXTURE / f"shard-{i:05d}.bin").read_bytes() for i in range(3)]
        assert _payloads(fresh.path) == v2_files
        assert fresh.total_payload_bytes() == sum(map(len, v2_files))
        assert fresh.stats().payload_bytes == Dataset.open(v2_dir).stats().payload_bytes

    @pytest.mark.parametrize("write", ["append", "compact"])
    def test_the_first_write_leaves_a_clean_v3_directory(self, v2_dir, write):
        before = Dataset.open(v2_dir)
        parameters = _fit_parameters(before)
        batches = v2_fixture_batches()
        if write == "append":
            before.append(batches[:1], scheme="TOC", workers=1)
            batches = batches + batches[:1]
        else:
            before.compact(readvise=False)

        manifest = json.loads((v2_dir / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == 3
        assert not (v2_dir / LABELS_NAME).exists()
        assert sorted(p.name for p in v2_dir.iterdir()) == sorted(
            [MANIFEST_NAME, *(row["filename"] for row in manifest["shards"])]
        )
        v2_files = [(V2_FIXTURE / f"shard-{i:05d}.bin").read_bytes() for i in range(3)]
        assert _payloads(v2_dir)[:3] == v2_files
        upgraded = Dataset.open(v2_dir)
        assert upgraded.fsck(remove=False).clean
        _assert_holds(upgraded, batches)
        if write == "compact":
            np.testing.assert_array_equal(_fit_parameters(upgraded), parameters)

    def test_the_upgrade_writes_copies_then_the_manifest_then_unlinks(
        self, v2_dir, monkeypatch
    ):
        events: list[tuple[str, str]] = []
        publish, unlink = shards.publish_file, Path.unlink
        monkeypatch.setattr(
            shards, "publish_file",
            lambda path, data: (events.append(("publish", path.name)), publish(path, data)),
        )
        monkeypatch.setattr(
            Path, "unlink",
            lambda path, *a, **k: (events.append(("unlink", path.name)), unlink(path, *a, **k)),
        )
        Dataset.open(v2_dir).append(v2_fixture_batches()[:1], scheme="TOC", workers=1)
        copies = [("publish", f"shard-{i:05d}.g1.bin") for i in range(3)]
        superseded = [("unlink", f"shard-{i:05d}.bin") for i in range(3)]
        assert events == [
            ("publish", "shard-00003.bin"), *copies, ("publish", MANIFEST_NAME),
            ("unlink", LABELS_NAME), *superseded,
        ]

    @pytest.mark.parametrize("crash", ["before", "after"])
    def test_a_crashed_upgrade_leaves_one_version_readable(self, v2_dir, monkeypatch, crash):
        """Before the manifest publish the v2 directory stands; after it, the v3 one."""
        publish = shards.publish_file
        unlink = Path.unlink

        def crash_before(path, data):
            if path.name == MANIFEST_NAME:
                raise OSError("crashed before the manifest swap")
            publish(path, data)

        def crash_after(path, *args, **kwargs):
            raise OSError("crashed after the manifest swap")

        if crash == "before":
            monkeypatch.setattr(shards, "publish_file", crash_before)
        else:
            monkeypatch.setattr(Path, "unlink", crash_after)
        with pytest.raises(OSError, match="crashed"):
            Dataset.open(v2_dir).compact(readvise=False)
        monkeypatch.setattr(Path, "unlink", unlink)

        reopened = Dataset.open(v2_dir)
        expected = 2 if crash == "before" else 3
        assert json.loads((v2_dir / MANIFEST_NAME).read_text())["format_version"] == expected
        _assert_holds(reopened, v2_fixture_batches())
        report = reopened.fsck()
        assert len(report.orphans) == (3 if crash == "before" else 4)
        assert (LABELS_NAME in report.orphans) == (crash == "after")
        assert Dataset.open(v2_dir).fsck(remove=False).clean
        _assert_holds(Dataset.open(v2_dir), v2_fixture_batches())

    def test_create_over_it_leaves_no_labels_archive(self, v2_dir):
        replaced = Dataset.create(v2_dir, v2_fixture_batches()[:1], scheme="CVI", workers=1)
        assert replaced.generation == 2
        assert sorted(p.name for p in v2_dir.iterdir()) == [MANIFEST_NAME, "shard-00000.g1.bin"]
        _assert_holds(Dataset.open(v2_dir), v2_fixture_batches()[:1])

    def test_fsck_removes_a_labels_archive_left_in_a_v3_directory(self, v2_dir):
        Dataset.open(v2_dir).compact(readvise=False)
        (v2_dir / LABELS_NAME).write_bytes((V2_FIXTURE / LABELS_NAME).read_bytes())
        report = Dataset.open(v2_dir).fsck()
        assert report.orphans == (LABELS_NAME,) and report.removed == (LABELS_NAME,)
        assert not (v2_dir / LABELS_NAME).exists()

    def test_fsck_keeps_the_labels_archive_of_a_v2_directory(self, v2_dir):
        report = Dataset.open(v2_dir).fsck()
        assert report.clean and (v2_dir / LABELS_NAME).exists()
