"""Only the trainer and the experiments build a buffer pool; serving keeps two caches.

A byte-budgeted :class:`~repro.storage.buffer_pool.BufferPool` is the
paper's RAM-budget mechanism for training (Figure 9, Tables 6–7).  Readers
that serve rows or scan shards go to the files directly — a scan reads each
shard once, the feature store maps it — under the service's score array and
the store's parsed-shard LRU.  These tests list every
``BufferPool(...)`` and ``LRUCache(...)`` call under ``src/repro`` and fail
when a pool appears outside the out-of-core trainer and the simulated-disk
experiments, or an LRU outside the feature store; they fail when the
feature store grows a cache besides its parsed-shard LRU, when a live
service holds a cache besides its score array, and when a serving entry
point takes a cache size again.
"""

from __future__ import annotations

import ast
import inspect
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import AsyncPredictionService, ClusterService, open_service
from repro.data.registry import DATASET_PROFILES
from repro.engine.shards import Dataset
from repro.ml.models import FeedForwardNetwork, LogisticRegressionModel
from repro.serve.feature_store import FeatureStore
from repro.serve.lru import LRUCache
from repro.serve.service import PredictionService
from repro.storage.buffer_pool import BufferPool

PACKAGE = Path(repro.__file__).resolve().parent

#: Where a buffer pool may be built: the out-of-core trainer and the
#: simulated-disk experiments of Tables 6-7 and Figures 9-11.
POOL_OWNERS = ("engine/trainer.py", "bench/experiments.py")

#: Where an LRU may be built: the feature store's parsed shards.  A
#: service's predictions live in its score array, which has no size to bound.
LRU_OWNERS = ("serve/feature_store.py",)


def _constructions(path: Path, cls: str) -> list[int]:
    """Line numbers of every ``cls(...)`` / ``<module>.cls(...)`` call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == cls:
                lines.append(node.lineno)
    return lines


def _built_outside(cls: str, owners: tuple[str, ...]) -> list[str]:
    return [
        f"{relative}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if not (relative := path.relative_to(PACKAGE).as_posix()).startswith(owners)
        for line in _constructions(path, cls)
    ]


def test_only_the_trainer_and_the_experiments_build_buffer_pools():
    found = _built_outside("BufferPool", POOL_OWNERS)
    assert not found, f"a buffer pool outside the trainer and the experiments: {found}"
    for owner in POOL_OWNERS:
        assert _constructions(PACKAGE / owner, "BufferPool"), owner


def test_only_the_feature_store_builds_an_lru():
    found = _built_outside("LRUCache", LRU_OWNERS)
    assert not found, f"an LRU outside the feature store: {found}"
    assert _constructions(PACKAGE / "serve" / "feature_store.py", "LRUCache")


def test_the_scan_sees_a_pool(tmp_path):
    """The check itself: a bare and a qualified construction are both caught."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.storage import buffer_pool\n"
        "a = BufferPool(budget_bytes=1)\n"
        "b = buffer_pool.BufferPool(budget_bytes=2)\n"
        "c = BufferPoolStats()\n"
    )
    assert _constructions(probe, "BufferPool") == [2, 3]


def test_the_scan_sees_an_lru(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.serve import lru\n"
        "a = LRUCache(8)\n"
        "b = lru.LRUCache(capacity=4)\n"
        "c = LRUCacheStats()\n"
        "d = LRUCache\n"
    )
    assert _constructions(probe, "LRUCache") == [2, 3]


def _caches(obj) -> set[str]:
    return {
        name
        for name, value in vars(obj).items()
        if isinstance(value, (LRUCache, BufferPool, dict, OrderedDict))
    }


def test_the_feature_store_holds_one_cache(tmp_path):
    features, labels = DATASET_PROFILES["census"].classification(120, seed=2)
    batches = [(features[i : i + 40], labels[i : i + 40]) for i in range(0, 120, 40)]
    store = FeatureStore(Dataset.create(tmp_path, batches, scheme="TOC", workers=1))
    np.testing.assert_allclose(store.get_rows([0, 50, 119, 50]), features[[0, 50, 119, 50]])
    assert _caches(store) == {"_parsed"}
    assert not any(
        hasattr(getattr(FeatureStore, name), "cache_info") for name in dir(FeatureStore)
    ), "a functools cache on a FeatureStore method"


@pytest.mark.parametrize("network", [False, True], ids=["logreg", "ffnn"])
def test_a_live_service_holds_no_cache_but_its_score_array(tmp_path, network):
    features, labels = DATASET_PROFILES["census"].classification(120, seed=2)
    batches = [(features[i : i + 40], labels[i : i + 40]) for i in range(0, 120, 40)]
    store = FeatureStore(Dataset.create(tmp_path, batches, scheme="TOC", workers=1))
    n_cols = features.shape[1]
    model = FeedForwardNetwork(n_cols, (4,), seed=0) if network else LogisticRegressionModel(n_cols)
    with PredictionService(model, store) as service:
        service.predict_id(3)
        service.predict_ids([0, 50, 119, 50])
        assert _caches(service) == set()
        serving = service._serving
        assert (serving.scores.shape, serving.filled.shape) == ((120,), (120,))
        assert serving.scores.nbytes + serving.filled.nbytes == 120 * 9


@pytest.mark.parametrize(
    "entry",
    [
        PredictionService,
        PredictionService.from_registry,
        AsyncPredictionService.from_registry,
        open_service,
        ClusterService,
    ],
    ids=["PredictionService", "from_registry", "async_from_registry", "open_service",
         "ClusterService"],
)
def test_no_serving_entry_point_takes_a_cache_size(entry):
    assert "cache_size" not in inspect.signature(entry).parameters
