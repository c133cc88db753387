"""A shard file of the wrong length is an ``EncodingError`` on every read path.

The manifest records each shard's ``nbytes``; ``Dataset.read_payload``
and ``map_payload`` hold the file to it before any scheme parses a byte.
Without that check a DEN or CLA shard 8 bytes short raised NumPy's untyped
``ValueError``, and DEN, CLA, Snappy and Gzip decoded a shard with 8 bytes of
trailing garbage as if it were whole.

The manifest's shape bounds a shard's rows the same way: a DEN or CLA
header claiming ``2**40 x 0`` parses (NumPy holds a zero-cell array of any
row count), and ``Dataset.decode`` refuses it before any kernel sizes an
output from it.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.api import Dataset, Estimator
from repro.compression.registry import available_schemes
from repro.core.validate import EncodingError
from repro.data.registry import DATASET_PROFILES
from repro.engine.shards import MANIFEST_NAME
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
    path = directory / dataset.shards[0].filename
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


@pytest.mark.parametrize("scheme, header", [
    ("DEN", struct.pack("<QQ", 2**40, 0)),
    ("CLA", b"CLA1" + struct.pack("<QQQQ", 2**40, 0, 0, 0)),
])
def test_a_zero_cell_header_of_2_40_rows_is_held_to_the_manifests_shape(tmp_path, scheme, header):
    x, y = DATASET_PROFILES["census"].classification(200, seed=5)
    Dataset.create(tmp_path, x, y, scheme=scheme, batch_size=100, shuffle=False, workers=1)
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    row = manifest["shards"][0]
    path = tmp_path / row["filename"]
    # The forged payload keeps the shard's label block, and the manifest row matches it.
    forged = header + path.read_bytes()[row["nbytes"]:]
    path.write_bytes(forged)
    row.update(nbytes=len(header), crc32=zlib.crc32(forged))
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    dataset = Dataset.open(tmp_path)
    assert dataset.fsck(remove=False).clean

    reads = {
        "take": lambda: dataset.take([0]),
        "decode": lambda: dataset.decode(0),
        "fit": lambda: Estimator("logreg", epochs=1, batch_size=50, workers=1).fit(dataset),
    }
    for read in reads.values():
        with pytest.raises(EncodingError, match=rf"shard 0 decodes to {2**40} x 0; "
                           rf"the manifest records 100 x {x.shape[1]}"):
            read()
