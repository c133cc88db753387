"""A flipped bit in a stored payload is an ``EncodingError`` or a well-formed matrix, never a crash.

SciPy trusts the CSR arrays it is handed: an ``indptr`` or a column index
out of range makes its kernels read past their buffers, which kills the
process with a signal.  So the flips of every scheme that indexes with
stored offsets and codes (CSR, CVI, DVI, TOC) run in a child process, and a
signal fails the test rather than the test run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compression.byteblock import GzipMatrix, SnappyLikeMatrix
from repro.core.validate import EncodingError
from repro.data.registry import DATASET_PROFILES

FLIPS = 200

#: Decodes FLIPS seeded single-bit flips of one 250-row census payload of the
#: scheme named in argv and prints how many raised EncodingError; any other
#: exception fails the child.  A decoded matrix must be well-formed: a CSR
#: one passes SciPy's full format check, and any one no larger than a few
#: times the original is row-sliced whole, decoded and multiplied both ways
#: (a flipped column count can claim a matrix too large to materialise; a
#: dataset refuses that shape against its manifest).
_FLIPS = """
import sys
import numpy as np
from repro.compression.registry import get_scheme
from repro.core.validate import EncodingError
from repro.data.registry import DATASET_PROFILES

scheme = get_scheme(sys.argv[1])
x, _ = DATASET_PROFILES["census"].classification(250, seed=0)
payload = scheme.compress(x).to_bytes()
rng = np.random.default_rng(int(sys.argv[2]))
errors = 0
for bit in rng.choice(len(payload) * 8, size=int(sys.argv[3]), replace=False):
    flipped = bytearray(payload)
    flipped[bit // 8] ^= 1 << (bit % 8)
    try:
        matrix = scheme.decompress_bytes(bytes(flipped))
        if sys.argv[1] == "CSR":
            matrix.to_scipy().check_format(full_check=True)
        rows, cols = matrix.shape
        if rows * cols <= 4 * x.size:
            assert matrix.row_slice(np.arange(rows)).shape == (rows, cols)
            assert matrix.to_dense().shape == (rows, cols)
            assert matrix.matvec(np.ones(cols)).shape == (rows,)
            assert matrix.rmatvec(np.ones(rows)).shape == (cols,)
    except EncodingError:
        errors += 1
print(errors)
"""


def _flip(payload: bytes, bit: int) -> bytes:
    flipped = bytearray(payload)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def _flips_in_a_child(scheme: str) -> subprocess.CompletedProcess:
    src = Path(repro.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", _FLIPS, scheme, "7", str(FLIPS)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_csr_bit_flips_never_kill_the_reader():
    result = _flips_in_a_child("CSR")
    # Before the checks, a few flips in every 40 ended in SIGSEGV (exit -11).
    assert result.returncode == 0, f"exit {result.returncode}: {result.stderr[-2000:]}"
    assert 0 < int(result.stdout) < FLIPS  # indexes and offsets are refused, values decode


@pytest.mark.parametrize("scheme", ["TOC", "CVI", "DVI"])
def test_indexed_bit_flips_raise_only_encoding_errors(scheme):
    # Before the checks these raised ValueError and IndexError from NumPy:
    # an offset out of order, a code past the dictionary, a column past the row.
    result = _flips_in_a_child(scheme)
    assert result.returncode == 0, f"exit {result.returncode}: {result.stderr[-2000:]}"
    assert 0 < int(result.stdout) < FLIPS


def test_a_shard_that_decodes_to_another_shape_is_refused(tmp_path):
    from repro.core.toc import TOCMatrix
    from repro.engine.shards import Dataset

    x, y = DATASET_PROFILES["census"].classification(100, seed=0)
    dataset = Dataset.create(tmp_path, [(x[:50], y[:50]), (x[50:], y[50:])], scheme="TOC",
                                    workers=1)
    short = TOCMatrix.encode(x[50:99]).to_bytes()  # one row short
    # Handed over (as a pool or a feature store hands its bytes), the shape is checked ...
    with pytest.raises(EncodingError, match="decodes to 49 x 68; the manifest records 50 x 68"):
        dataset.decode(1, short)
    # ... and read from disk, the file's length is checked before it is parsed.
    (tmp_path / dataset.shards[1].filename).write_bytes(short)
    with pytest.raises(EncodingError, match=f"holds {len(short)} bytes; the manifest records"):
        Dataset.open(tmp_path).decode(1)


@pytest.mark.parametrize("matrix_type", [GzipMatrix, SnappyLikeMatrix])
def test_byte_block_bit_flips_raise_encoding_errors(matrix_type):
    x, _ = DATASET_PROFILES["census"].classification(250, seed=0)
    payload = matrix_type(x).to_bytes()
    rng = np.random.default_rng(7)
    errors = 0
    for bit in rng.choice(len(payload) * 8, size=FLIPS, replace=False):
        try:
            decoded = matrix_type.decompress_bytes(_flip(payload, int(bit))).to_dense()
        except EncodingError:
            errors += 1
            continue
        assert decoded.shape == x.shape
    assert errors > 0
    with pytest.raises(EncodingError):
        matrix_type.decompress_bytes(payload[:10])
