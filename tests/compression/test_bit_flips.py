"""A flipped bit in a stored payload is an ``EncodingError`` or a well-formed matrix, never a crash.

SciPy trusts the CSR arrays it is handed: an ``indptr`` or a column index
out of range makes its kernels read past their buffers, which kills the
process with a signal.  So the CSR flips run in a child process, and a
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

#: Decodes FLIPS seeded single-bit flips of one 250-row census CSR payload and
#: prints how many raised EncodingError.  A matrix that decodes must pass
#: SciPy's full format check; one of the original shape is also row-sliced
#: whole and multiplied both ways.
_CSR_FLIPS = """
import sys
import numpy as np
from repro.compression.csr import CSRMatrix
from repro.core.validate import EncodingError
from repro.data.registry import DATASET_PROFILES
from repro.exec import row_slice

x, _ = DATASET_PROFILES["census"].classification(250, seed=0)
payload = CSRMatrix(x).to_bytes()
rng = np.random.default_rng(int(sys.argv[1]))
errors = 0
for bit in rng.choice(len(payload) * 8, size=int(sys.argv[2]), replace=False):
    flipped = bytearray(payload)
    flipped[bit // 8] ^= 1 << (bit % 8)
    try:
        matrix = CSRMatrix.from_bytes(bytes(flipped))
    except EncodingError:
        errors += 1
        continue
    matrix.to_scipy().check_format(full_check=True)
    if matrix.shape == x.shape:
        assert row_slice(matrix, np.arange(x.shape[0])).shape == x.shape
        assert matrix.matvec(np.ones(x.shape[1])).shape == (x.shape[0],)
        assert matrix.rmatvec(np.ones(x.shape[0])).shape == (x.shape[1],)
print(errors)
"""


def _flip(payload: bytes, bit: int) -> bytes:
    flipped = bytearray(payload)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def test_csr_bit_flips_never_kill_the_reader():
    src = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _CSR_FLIPS, "7", str(FLIPS)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    # Before the checks, a few flips in every 40 ended in SIGSEGV (exit -11).
    assert result.returncode == 0, f"exit {result.returncode}: {result.stderr[-2000:]}"
    assert 0 < int(result.stdout) < FLIPS  # indexes and offsets are refused, values decode


@pytest.mark.parametrize("matrix_type", [GzipMatrix, SnappyLikeMatrix])
def test_byte_block_bit_flips_raise_encoding_errors(matrix_type):
    x, _ = DATASET_PROFILES["census"].classification(250, seed=0)
    payload = matrix_type(x).to_bytes()
    rng = np.random.default_rng(7)
    errors = 0
    for bit in rng.choice(len(payload) * 8, size=FLIPS, replace=False):
        try:
            decoded = matrix_type.from_bytes(_flip(payload, int(bit))).to_dense()
        except EncodingError:
            errors += 1
            continue
        assert decoded.shape == x.shape
    assert errors > 0
    with pytest.raises(EncodingError):
        matrix_type.from_bytes(payload[:10])
