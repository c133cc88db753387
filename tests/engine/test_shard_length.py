"""A shard file of the wrong length is an ``EncodingError`` on every read path.

The manifest records each shard's ``nbytes``; ``ShardedDataset.read_payload``
and ``map_payload`` hold the file to it before any scheme parses a byte.
Without that check a DEN or CLA shard 8 bytes short raised NumPy's untyped
``ValueError``, and DEN, CLA, Snappy and Gzip decoded a shard with 8 bytes of
trailing garbage as if it were whole.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset, Estimator
from repro.compression.registry import available_schemes
from repro.core.validate import EncodingError
from repro.data.registry import DATASET_PROFILES
from repro.serve.feature_store import FeatureStore

#: Bytes cut from (negative) or appended to (positive) shard 0's file.
DELTAS = (-8, 8)


def _take(directory):
    Dataset.open(directory).take([0, 1])


def _scan(directory):
    Dataset.open(directory).scan(columns=[0])


def _fit(directory):
    Estimator("logreg", epochs=1, batch_size=50, workers=1).fit(Dataset.open(directory))


def _get_row(directory):
    FeatureStore.open(directory).get_row(0)


READ_PATHS = {"take": _take, "scan": _scan, "fit": _fit, "get_row": _get_row}


@pytest.fixture(scope="module", params=[
    (scheme, delta) for scheme in available_schemes() for delta in DELTAS
], ids=lambda p: f"{p[0]}{p[1]:+d}")
def damaged(request, tmp_path_factory):
    """A two-shard census directory whose shard 0 file is ``delta`` bytes off."""
    scheme, delta = request.param
    x, y = DATASET_PROFILES["census"].classification(200, seed=5)
    directory = tmp_path_factory.mktemp("length") / scheme
    dataset = Dataset.create(
        directory, x, y, scheme=scheme, batch_size=100, shuffle=False, workers=1
    )
    path = directory / dataset.sharded.shards[0].filename
    payload = path.read_bytes()
    path.write_bytes(payload[:delta] if delta < 0 else payload + bytes(range(delta)))
    return directory, len(payload), len(payload) + delta


@pytest.mark.parametrize("read", READ_PATHS.values(), ids=READ_PATHS.keys())
def test_a_shard_of_the_wrong_length_raises_encoding_error(damaged, read):
    directory, recorded, actual = damaged
    with pytest.raises(EncodingError, match=rf"shard 0 .* holds {actual} bytes; "
                       rf"the manifest records {recorded}"):
        read(directory)


def test_an_intact_shard_reads_on_every_path(tmp_path):
    x, y = DATASET_PROFILES["census"].classification(200, seed=5)
    Dataset.create(tmp_path, x, y, scheme="DEN", batch_size=100, shuffle=False, workers=1)
    for read in READ_PATHS.values():
        read(tmp_path)
    np.testing.assert_array_equal(FeatureStore.open(tmp_path).get_row(0), x[0])
