"""v1 and v2 shard directories, as the code of those formats wrote them.

``fixtures/v2_census`` is a directory the v2 writer produced: three 20-row
census shards (``TOC``, ``TOC``, ``CVI``) of
``DATASET_PROFILES["census"].classification(60, seed=13)`` in row order,
with ``labels.npz`` and a format-2 manifest.  :func:`downgrade_manifest_to_v1`
turns a directory written today into the PR 1 layout.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from repro.data.registry import DATASET_PROFILES
from repro.engine.shards import LABELS_NAME, MANIFEST_NAME, Dataset

V2_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "v2_census"


def v2_fixture_batches() -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(features, labels)`` batches stored in :data:`V2_FIXTURE`."""
    features, labels = DATASET_PROFILES["census"].classification(60, seed=13)
    return [(features[i:i + 20], labels[i:i + 20]) for i in range(0, 60, 20)]


def copy_v2_fixture(directory: Path) -> Path:
    """A writable copy of :data:`V2_FIXTURE` at ``directory``."""
    shutil.copytree(V2_FIXTURE, directory)
    return directory


def downgrade_manifest_to_v1(directory: Path) -> None:
    """Rewrite a v3 directory exactly as the PR 1 code laid it out.

    Shard files hold their payloads alone, every label goes into one
    ``labels.npz``, and the manifest names one dataset-wide scheme.
    """
    dataset = Dataset.open(directory)
    np.savez(
        directory / LABELS_NAME,
        **{f"y{s.batch_id:05d}": dataset.labels_for(s.batch_id) for s in dataset.shards},
    )
    path = directory / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    assert manifest["format_version"] == 3
    for row in manifest["shards"]:
        shard_file = directory / row["filename"]
        shard_file.write_bytes(shard_file.read_bytes()[: row["nbytes"]])
        del row["label_nbytes"], row["crc32"]
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
