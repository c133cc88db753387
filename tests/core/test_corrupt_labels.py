"""A corrupt label block is an ``EncodingError``, never a crash or a wrong array.

The label block after each v3 shard payload (:mod:`repro.engine.labels`)
is parsed straight out of the file's bytes, so, as for the payloads in
``test_corrupt_payloads.py``, a child process decodes each damaged block
and any outcome but an array or ``EncodingError`` fails the test.  Every
truncation and every code past its dictionary must be refused.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.data.registry import DATASET_PROFILES
from repro.engine.labels import encode_labels

ROWS = 250
_, _LABELS = DATASET_PROFILES["census"].classification(ROWS, seed=3)
INDEXED = encode_labels(_LABELS)
RAW = encode_labels(np.random.default_rng(3).normal(size=ROWS))
#: Where the value-indexed block's codes start: header (6), dictionary size
#: (4), two doubles, then the packed block's count and width (8).
CODES_AT = 6 + 4 + 2 * 8 + 8

#: Decodes every block (hex, one JSON list on stdin) as ``argv[1]`` rows and
#: prints one line per block: ``E`` for EncodingError, else the array's shape.
_CHILD = """
import json, sys
from repro.core.validate import EncodingError
from repro.engine.labels import decode_labels

for raw in json.load(sys.stdin):
    try:
        print(decode_labels(bytes.fromhex(raw), int(sys.argv[1])).shape)
    except EncodingError:
        print("E")
"""


def _decode_in_a_child(blocks: list[bytes]) -> list[str]:
    src = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROWS)],
        input=json.dumps([raw.hex() for raw in blocks]),
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    # A signal is a negative return code; an untyped exception exits 1.
    assert result.returncode == 0, f"exit {result.returncode}: {result.stderr[-2000:]}"
    return result.stdout.split("\n")[:-1]


def _with_code(position: int, code: int) -> bytes:
    patched = bytearray(INDEXED)
    patched[CODES_AT + position] = code
    return bytes(patched)


def test_the_intact_blocks_decode():
    assert _decode_in_a_child([INDEXED, RAW]) == [f"({ROWS},)"] * 2


def test_every_truncation_and_every_code_past_the_dictionary_is_refused():
    blocks = [block[:keep] for block in (INDEXED, RAW) for keep in range(len(block))]
    blocks += [_with_code(position, code) for position in (0, 17, ROWS - 1) for code in (2, 255)]
    assert set(_decode_in_a_child(blocks)) == {"E"}


CORRUPTIONS = st.one_of(
    # Any byte of either block set to anything.
    st.sampled_from([INDEXED, RAW]).flatmap(
        lambda block: st.tuples(st.integers(0, len(block) - 1), st.integers(0, 255)).map(
            lambda f: block[: f[0]] + bytes([f[1]]) + block[f[0] + 1 :]
        )
    ),
    # A span cut out, or bytes added at the end.
    st.tuples(st.integers(0, len(INDEXED)), st.integers(1, 32)).map(
        lambda cut: INDEXED[: cut[0]] + INDEXED[cut[0] + cut[1] :]
    ),
    st.binary(min_size=1, max_size=16).map(lambda tail: INDEXED + tail),
)


@given(st.lists(CORRUPTIONS, min_size=40, max_size=40))
@settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_corrupt_blocks_raise_only_encoding_errors(blocks):
    outcomes = _decode_in_a_child(blocks)
    assert len(outcomes) == len(blocks)
    assert set(outcomes) <= {"E", f"({ROWS},)"}
