"""A shard's label block returns exactly what ``np.savez`` returned, in less space.

The labels of a v1/v2 directory went through ``np.savez``/``np.load``; a v3
directory value-indexes them into each shard file
(:mod:`repro.engine.labels`).  Hypothesis draws label arrays of every dtype
the data profiles produce and of the bit patterns a float round trip could
lose (``-0.0``, NaN payloads, the infinities), and compares dtype, shape and
bits with the ``np.savez`` round trip.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validate import EncodingError
from repro.data.registry import DATASET_PROFILES
from repro.engine.labels import decode_labels, encode_labels
from repro.engine.shards import Dataset

#: ``-0.0``, ``+0.0``, ``±inf``, quiet and signalling NaNs with payloads, ``1.0``.
_F64_BITS = [
    0x8000000000000000, 0, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0x3FF0000000000000,
]
_F32_BITS = [0x80000000, 0, 0x7F800000, 0xFF800000, 0x7FC00001, 0xFFC00000, 0x7F800001, 0x3F800000]

_ITEMS = {
    "<f8": st.sampled_from(_F64_BITS) | st.integers(0, 2**64 - 1),
    "<f4": st.sampled_from(_F32_BITS) | st.integers(0, 2**32 - 1),
    "<i8": st.sampled_from([0, 1, -1, 2**63 - 1, -(2**63)]) | st.integers(-(2**63), 2**63 - 1),
    "|b1": st.booleans(),
}
_BIT_VIEW = {"<f8": "<u8", "<f4": "<u4", "<i8": "<i8", "|b1": "|b1"}


@st.composite
def label_arrays(draw) -> np.ndarray:
    dtype = draw(st.sampled_from(sorted(_ITEMS)))
    shape = draw(st.sampled_from([(0,), (1,), (7,), (250,), (3, 2), (40, 3)]))
    # Few distinct items (the usual label column), or any.
    pool = draw(st.lists(_ITEMS[dtype], min_size=1, max_size=draw(st.sampled_from([2, 5, 300]))))
    items = draw(st.lists(st.sampled_from(pool), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    return np.array(items, dtype=_BIT_VIEW[dtype]).view(dtype).reshape(shape)


def _through_savez(labels: np.ndarray) -> np.ndarray:
    archive = io.BytesIO()
    np.savez(archive, y=labels)
    archive.seek(0)
    with np.load(archive) as loaded:
        return loaded["y"]


@given(label_arrays())
@settings(max_examples=300, deadline=None)
def test_round_trip_returns_what_savez_returned(labels):
    expected = _through_savez(labels)
    got = decode_labels(encode_labels(labels), labels.shape[0])
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()
    assert got.flags.writeable


def test_binary_labels_cost_a_byte_each():
    _, labels = DATASET_PROFILES["census"].classification(250, seed=0)
    block = encode_labels(labels)
    assert len(block) < 300 < labels.nbytes // 6
    assert np.array_equal(decode_labels(block, 250), labels)


def test_distinct_floats_are_stored_raw():
    labels = np.random.default_rng(0).normal(size=250)
    block = encode_labels(labels)
    assert len(block) == labels.nbytes + 6  # tag, "<f8" and its length, no trailing dims
    assert decode_labels(block, 250).tobytes() == labels.tobytes()


@pytest.mark.parametrize(
    "labels", [np.array([object()]), np.zeros(2, dtype=[("a", "<f8")])], ids=["object", "fields"],
)
def test_a_dtype_no_block_holds_is_refused_before_any_write(tmp_path, labels):
    with pytest.raises(ValueError, match="cannot be stored"):
        encode_labels(labels)
    batches = [(np.ones((labels.size, 3)), labels)]
    with pytest.raises(ValueError, match="cannot be stored"):
        Dataset.create(tmp_path / "ds", batches, scheme="DEN", workers=1)
    assert not (tmp_path / "ds").exists()


def test_the_wrong_row_count_is_an_encoding_error():
    block = encode_labels(np.array([0.0, 1.0, 1.0, 0.0] * 10))
    with pytest.raises(EncodingError, match="codes"):
        decode_labels(block, 41)
    raw = encode_labels(np.arange(5.0))
    with pytest.raises(EncodingError, match="bytes"):
        decode_labels(raw, 4)
