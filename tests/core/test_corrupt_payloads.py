"""A corrupt payload is an ``EncodingError`` or a well-formed matrix, never a crash.

Hypothesis draws truncations, splices and headers claiming huge counts of
one census TOC payload.  A child process parses each one
(:func:`~repro.core.physical.physical_decode`), builds its decode tree and,
when the claimed shape is small enough to materialise, slices, decodes and
multiplies it both ways.  The parse reads every block straight out of the
bytes and the kernels index with the stored codes and offsets, so a missed
check could end the reader with a signal: in a child that fails the test,
not the test run.  Every other scheme's payload gets the truncations and
the huge shapes too, through its ``decompress_bytes``.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.compression.registry import available_schemes, get_scheme
from repro.core.toc import TOCMatrix
from repro.data.registry import DATASET_PROFILES

PAYLOAD = TOCMatrix.compress(DATASET_PROFILES["census"].matrix(120, seed=3)).to_bytes()
OTHER = TOCMatrix.compress(DATASET_PROFILES["census"].matrix(80, seed=4)).to_bytes()

#: Decodes every payload (hex, one JSON list on stdin) with the scheme named
#: in ``argv[1]`` and prints how many raised EncodingError; any other
#: exception fails the child.  A matrix no larger than a few times the
#: original is decoded, row-sliced whole and multiplied both ways; a larger
#: claimed TOC shape still gets its tree built.
_CHILD = """
import json, sys
import numpy as np
from repro.compression.registry import get_scheme
from repro.core.validate import EncodingError

scheme = get_scheme(sys.argv[1])
errors = 0
for raw in json.load(sys.stdin):
    try:
        matrix = scheme.decompress_bytes(bytes.fromhex(raw))
        if scheme.scheme_name == "TOC":
            matrix.decode_tree
        rows, cols = matrix.shape
        if rows * cols <= 4 * 120 * 68:
            dense = matrix.to_dense()
            assert dense.shape == (rows, cols)
            assert np.array_equal(matrix.row_slice(np.arange(rows)), dense, equal_nan=True)
            assert matrix.matvec(np.ones(cols)).shape == (rows,)
            assert matrix.rmatvec(np.ones(rows)).shape == (cols,)
    except EncodingError:
        errors += 1
print(errors)
"""


def _count_fields(raw: bytes) -> list[int]:
    """Offsets of the count field of each packed block, in payload order.

    The blocks follow the 4-byte magic and the two 8-byte shape fields:
    first-layer columns, value codes, the dictionary's size (the dictionary's
    doubles follow it), codes, row offsets.
    """
    fields, offset = [], 20
    for block in range(5):
        count, width = struct.unpack_from("<II", raw, offset)
        fields.append(offset)
        offset += 8 + count * width
        if block == 2:
            offset += 8 * int.from_bytes(raw[offset - width : offset], "little")
    assert offset == len(raw)
    return fields


def _set(raw: bytes, offset: int, fmt: str, value: int) -> bytes:
    patched = bytearray(raw)
    struct.pack_into(fmt, patched, offset, value)
    return bytes(patched)


_HUGE_U32 = st.sampled_from([2**32 - 1, 2**31, 2**24 + 1, len(PAYLOAD), 0, 1]) | st.integers(
    0, 2**32 - 1
)
_HUGE_U64 = st.sampled_from([2**64 - 1, 2**63, 2**40, 2**32, 121, 119, 0]) | st.integers(
    0, 2**64 - 1
)

CORRUPTIONS = st.one_of(
    # Truncated anywhere, the last byte included.
    st.integers(0, len(PAYLOAD) - 1).map(lambda keep: PAYLOAD[:keep]),
    # The head of this payload on the tail of another, and a span cut out.
    st.tuples(st.integers(0, len(PAYLOAD)), st.integers(0, len(OTHER))).map(
        lambda ij: PAYLOAD[: ij[0]] + OTHER[ij[1] :]
    ),
    st.tuples(st.integers(0, len(PAYLOAD)), st.integers(1, 64)).map(
        lambda cut: PAYLOAD[: cut[0]] + PAYLOAD[cut[0] + cut[1] :]
    ),
    # A block claiming a count (or a width) it does not hold.
    st.tuples(st.sampled_from(_count_fields(PAYLOAD)), st.booleans(), _HUGE_U32).map(
        lambda f: _set(PAYLOAD, f[0] + 4 * f[1], "<I", f[2])
    ),
    # A header claiming a shape it does not hold.
    st.tuples(st.sampled_from([4, 12]), _HUGE_U64).map(lambda f: _set(PAYLOAD, f[0], "<Q", f[1])),
)


def _decode_in_a_child(payloads: list[bytes], scheme: str = "TOC") -> subprocess.CompletedProcess:
    src = Path(repro.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", _CHILD, scheme],
        input=json.dumps([raw.hex() for raw in payloads]),
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_the_intact_payload_decodes_in_the_child():
    result = _decode_in_a_child([PAYLOAD, OTHER])
    assert result.returncode == 0, result.stderr[-2000:]
    assert int(result.stdout) == 0


@given(st.lists(CORRUPTIONS, min_size=40, max_size=40))
@settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_corrupt_payloads_raise_only_encoding_errors(payloads):
    result = _decode_in_a_child(payloads)
    # A signal is a negative return code; an untyped exception exits 1.
    assert result.returncode == 0, f"exit {result.returncode}: {result.stderr[-2000:]}"
    assert 0 <= int(result.stdout) <= len(payloads)


#: Byte offsets of each scheme's shape fields (``nnz`` follows for CSR and
#: CVI); TOC's follow its 4-byte magic.
_SHAPE_FIELDS = {"TOC": (4, 12), "CSR": (0, 8, 16), "CVI": (0, 8, 16)}


@pytest.mark.parametrize("scheme", available_schemes())
def test_every_scheme_refuses_truncations_and_huge_shapes(scheme):
    dense = DATASET_PROFILES["census"].matrix(120, seed=3)
    raw = get_scheme(scheme).compress(dense).to_bytes()
    assert get_scheme(scheme).decompress_bytes(raw).to_dense().tobytes() == dense.tobytes()
    cuts = [raw[:keep] for keep in (0, 3, 8, 15, 16, len(raw) // 2, len(raw) - 8, len(raw) - 1)]
    result = _decode_in_a_child(cuts, scheme)
    assert result.returncode == 0, f"exit {result.returncode}: {result.stderr[-2000:]}"
    assert int(result.stdout) == len(cuts)
    shapes = [
        _set(raw, offset, "<Q", value)
        for offset in _SHAPE_FIELDS.get(scheme, (0, 8))
        for value in (2**64 - 1, 2**63, 2**40, 2**32, 121, 119, 0)
    ]
    result = _decode_in_a_child(shapes, scheme)
    assert result.returncode == 0, f"exit {result.returncode}: {result.stderr[-2000:]}"
    assert 0 <= int(result.stdout) <= len(shapes)
