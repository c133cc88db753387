"""One write sequence for a shard directory: ``Dataset._write``.

``create``, ``append`` and ``compact`` all run it: every batch is checked
before any file is written, each payload is staged under a fresh filename,
then the labels and last the manifest are published, and only then are the
superseded files unlinked.  The AST guard at the end fails if any other
function under ``src/repro`` publishes a dataset file.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.validate import EncodingError
from repro.data.registry import DATASET_PROFILES
from repro.engine import shards
from repro.engine.shards import LABELS_NAME, MANIFEST_NAME, Dataset

PACKAGE = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="module")
def batches():
    features, labels = DATASET_PROFILES["census"].classification(200, seed=5)
    return [(features[i:i + 50], labels[i:i + 50]) for i in range(0, 200, 50)]


@pytest.fixture()
def events(monkeypatch):
    """``("publish" | "unlink", filename)`` for every file the dataset writes or removes."""
    seen: list[tuple[str, str]] = []
    publish, unlink = shards.publish_file, Path.unlink

    def record_publish(path, payload):
        seen.append(("publish", Path(path).name))
        publish(path, payload)

    def record_unlink(path, *args, **kwargs):
        seen.append(("unlink", path.name))
        unlink(path, *args, **kwargs)

    monkeypatch.setattr(shards, "publish_file", record_publish)
    monkeypatch.setattr(Path, "unlink", record_unlink)
    return seen


def _published(*names: str) -> list[tuple[str, str]]:
    return [("publish", name) for name in names]


class TestPublishOrder:
    def test_create(self, tmp_path, batches, events):
        Dataset.create(tmp_path, batches, scheme="TOC", workers=1)
        shard_files = [f"shard-{i:05d}.bin" for i in range(4)]
        assert events == _published(*shard_files, LABELS_NAME, MANIFEST_NAME)

    def test_append(self, tmp_path, batches, events):
        dataset = Dataset.create(tmp_path, batches, scheme="TOC", workers=1)
        del events[:]
        dataset.append(batches[:2], workers=1)
        assert events == _published(
            "shard-00004.bin", "shard-00005.bin", LABELS_NAME, MANIFEST_NAME
        )

    def test_compact_unlinks_only_after_the_manifest(
        self, tmp_path, batches, events, pin_calibration
    ):
        dataset = Dataset.create(tmp_path, batches, scheme="DEN", workers=1)
        pin_calibration(tmp_path, {"TOC": 1e-9})
        del events[:]
        report = dataset.compact(workers=1)
        assert report.n_reencoded == 4
        staged = [f"shard-{i:05d}.g1.bin" for i in range(4)]
        superseded = [("unlink", f"shard-{i:05d}.bin") for i in range(4)]
        assert events == _published(*staged, MANIFEST_NAME) + superseded

    def test_a_no_op_compact_writes_nothing(self, tmp_path, batches, events):
        dataset = Dataset.create(tmp_path, batches, scheme="TOC", workers=1)
        del events[:]
        dataset.compact(readvise=False)
        assert events == []
        assert dataset.generation == 1


def _widened(batch):
    features, labels = batch
    return np.hstack([features, features[:, :1]]), labels


def _short_labels(batch):
    features, labels = batch
    return features, labels[:7]


def _listing(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("damage", [_widened, _short_labels], ids=["width", "labels"])
class TestBatchesAreCheckedBeforeAnyWrite:
    def test_create(self, tmp_path, batches, damage):
        directory = tmp_path / "ds"
        bad = [batches[0], damage(batches[1]), batches[2]]
        with pytest.raises(ValueError, match="batch 1 has"):
            Dataset.create(directory, bad, scheme="TOC", workers=1)
        assert not directory.exists()

    def test_append(self, tmp_path, batches, damage):
        dataset = Dataset.create(tmp_path, batches, scheme="TOC", workers=1)
        before = _listing(tmp_path)
        with pytest.raises(ValueError, match="batch 1 has"):
            dataset.append([batches[0], damage(batches[1])], workers=1)
        assert _listing(tmp_path) == before
        assert (len(dataset), dataset.generation) == (4, 1)


@pytest.mark.parametrize("delta", [-8, 8])
def test_fsck_reports_a_shard_file_of_the_wrong_size(tmp_path, delta):
    features, labels = DATASET_PROFILES["census"].classification(200, seed=5)
    dataset = Dataset.create(tmp_path, features, labels, scheme="DEN", batch_size=100, workers=1)
    victim = tmp_path / dataset.shards[0].filename
    payload = victim.read_bytes()
    victim.write_bytes(payload[:delta] if delta < 0 else payload + bytes(delta))

    report = dataset.fsck()
    assert report.wrong_size == (victim.name,)
    assert report.missing == () and report.orphans == ()
    assert not report.clean
    assert victim.stat().st_size == len(payload) + delta  # reported, never repaired
    with pytest.raises(EncodingError, match="the manifest records"):
        dataset.take([0])


# -- the AST guard ---------------------------------------------------------------

#: The one function that writes a shard directory.
WRITER = ("engine/shards.py", "Dataset._write")

#: Every other function that publishes a file; none of them a dataset's.
OTHER_PUBLISHERS = {
    ("__main__.py", "_cmd_obs_dump"),  # a trace dump
    ("bench/runner.py", "write_bench_json"),  # a BENCH_*.json record
    ("core/calibration.py", "Calibration.save"),  # calibration.json
    ("serve/checkpoint.py", "save_checkpoint"),  # a model checkpoint
}

#: Names and literals that address a dataset's own files.
DATASET_FILES = {"MANIFEST_NAME", "LABELS_NAME", "manifest.json", "labels.npz"}


def _is_publish(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "publish_file") or (
        isinstance(node, ast.Attribute) and node.attr == "publish_file"
    )


def _tokens(nodes) -> set[str]:
    """Every name, attribute and constant in ``nodes``, as strings."""
    found = set()
    for node in (n for root in nodes for n in ast.walk(root)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant):
            found.add(str(node.value))
    return found


def publish_uses(source: str, relative: str) -> list[tuple[str, str, set[str]]]:
    """``(file, enclosing qualified name, argument tokens)`` per use of ``publish_file``.

    A reference that is not called (``partial(publish_file, ...)``) counts
    too, with no argument tokens.
    """
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.Call) and _is_publish(node.func):
            found.append((relative, ".".join(scope), _tokens(node.args)))
            children.remove(node.func)
        elif _is_publish(node):
            found.append((relative, ".".join(scope), set()))
        for child in children:
            visit(child, scope)

    visit(ast.parse(source, filename=relative), ())
    return found


def test_only_the_write_method_publishes_a_dataset_file():
    uses = [
        use
        for path in sorted(PACKAGE.rglob("*.py"))
        for use in publish_uses(path.read_text(), path.relative_to(PACKAGE).as_posix())
    ]
    # The shard payloads, the labels, the manifest.
    assert [use[:2] for use in uses].count(WRITER) == 3
    strays = [use[:2] for use in uses if use[:2] != WRITER and use[:2] not in OTHER_PUBLISHERS]
    assert not strays, f"publish_file used outside {WRITER}: {strays}"
    dataset_files = [use for use in uses if use[:2] != WRITER and use[2] & DATASET_FILES]
    assert not dataset_files, f"dataset files published outside {WRITER}: {dataset_files}"


def test_the_guard_sees_every_publish():
    source = '''
from functools import partial
from repro.storage.mmapio import publish_file

class Dataset:
    def _write(self):
        publish_file(self.path / MANIFEST_NAME, b"")

def stage(directory, name, payload):
    publish_file(directory / name, payload)

def later(path):
    return partial(publish_file, path)
'''
    uses = publish_uses(source, "engine/shards.py")
    assert [use[:2] for use in uses] == [
        WRITER,
        ("engine/shards.py", "stage"),
        ("engine/shards.py", "later"),
    ]
    assert "MANIFEST_NAME" in uses[0][2]
