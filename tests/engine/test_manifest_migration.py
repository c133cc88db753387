"""Manifest format migration: v1 single-scheme directories keep working.

PR 1 wrote manifests with ``format_version: 1`` and one dataset-wide
``"scheme"`` key; the per-shard format (v2) must read those unchanged — same
shards, same decoder, bit-identical training — because shard directories
outlive the code that wrote them.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.registry import DATASET_PROFILES
from repro.engine.shards import MANIFEST_NAME, Dataset
from repro.engine.trainer import OutOfCoreTrainer
from repro.ml.models import LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig


@pytest.fixture(scope="module")
def batches():
    features, labels = DATASET_PROFILES["census"].classification(240, seed=7)
    split = np.array_split(np.arange(features.shape[0]), 4)
    return [(features[idx], labels[idx]) for idx in split]


def downgrade_manifest_to_v1(directory) -> None:
    """Rewrite a v2 manifest exactly as the PR 1 code serialised it."""
    path = directory / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    assert manifest["format_version"] == 2
    schemes = {row.pop("scheme") for row in manifest["shards"]}
    assert len(schemes) == 1, "v1 can only describe single-scheme directories"
    v1 = {
        "format_version": 1,
        "scheme": schemes.pop(),
        "encode_seconds": manifest["encode_seconds"],
        "encode_executor": manifest["encode_executor"],
        "shards": manifest["shards"],
    }
    path.write_text(json.dumps(v1, indent=2))


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

    def test_v1_and_v2_train_identically(self, tmp_path, batches):
        """Same shards, different manifest generation: identical parameters."""
        v2_dir, v1_dir = tmp_path / "v2", tmp_path / "v1"
        Dataset.create(v2_dir, batches, scheme="TOC", workers=1)
        Dataset.create(v1_dir, batches, scheme="TOC", workers=1)
        downgrade_manifest_to_v1(v1_dir)

        config = GradientDescentConfig(batch_size=60, epochs=2, learning_rate=0.3)
        parameters = []
        for directory in (v2_dir, v1_dir):
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
