"""Only the trainer and the storage layer build a buffer pool; the feature store keeps one cache.

A byte-budgeted :class:`~repro.storage.buffer_pool.BufferPool` is the
paper's RAM-budget mechanism for training (Figure 9, Tables 6–7).  Readers
that serve rows or scan shards map the files directly, under the service's
prediction cache and the store's parsed-shard LRU.  This test lists every
``BufferPool(...)`` call under ``src/repro`` and fails when one appears
outside the trainer, the storage package and the storage simulation, and
fails when the feature store grows a cache besides its parsed-shard LRU.
"""

from __future__ import annotations

import ast
from collections import OrderedDict
from pathlib import Path

import numpy as np

import repro
from repro.data.registry import DATASET_PROFILES
from repro.engine.shards import ShardedDataset
from repro.serve.feature_store import FeatureStore
from repro.serve.lru import LRUCache
from repro.storage.buffer_pool import BufferPool

PACKAGE = Path(repro.__file__).resolve().parent

#: Where a buffer pool may be built: the out-of-core trainer, the storage
#: package itself, and the simulated-disk experiments.
POOL_OWNERS = ("engine/trainer.py", "storage/", "bench/experiments.py")


def _pool_constructions(path: Path) -> list[int]:
    """Line numbers of every ``BufferPool(...)`` / ``<module>.BufferPool(...)`` call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "BufferPool":
                lines.append(node.lineno)
    return lines


def test_only_the_trainer_and_the_storage_layer_build_buffer_pools():
    found = [
        f"{relative}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if not (relative := path.relative_to(PACKAGE).as_posix()).startswith(POOL_OWNERS)
        for line in _pool_constructions(path)
    ]
    assert not found, f"a buffer pool outside the trainer and storage: {found}"
    assert _pool_constructions(PACKAGE / "engine" / "trainer.py")


def test_the_scan_sees_a_pool(tmp_path):
    """The check itself: a bare and a qualified construction are both caught."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.storage import buffer_pool\n"
        "a = BufferPool(budget_bytes=1)\n"
        "b = buffer_pool.BufferPool(budget_bytes=2)\n"
        "c = BufferPoolStats()\n"
    )
    assert _pool_constructions(probe) == [2, 3]


def test_the_feature_store_holds_one_cache(tmp_path):
    features, labels = DATASET_PROFILES["census"].classification(120, seed=2)
    batches = [(features[i : i + 40], labels[i : i + 40]) for i in range(0, 120, 40)]
    store = FeatureStore(ShardedDataset.create(tmp_path, batches, "TOC", executor="serial"))
    np.testing.assert_allclose(store.get_rows([0, 50, 119, 50]), features[[0, 50, 119, 50]])

    caches = {
        name
        for name, value in vars(store).items()
        if isinstance(value, (LRUCache, BufferPool, dict, OrderedDict))
    }
    assert caches == {"_parsed"}
    assert not any(
        hasattr(getattr(FeatureStore, name), "cache_info") for name in dir(FeatureStore)
    ), "a functools cache on a FeatureStore method"
