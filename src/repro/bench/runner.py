"""Measurement helpers: compression ratios and the benchmark JSON files.

Besides :func:`measure_compression`, this module owns the machine-readable
benchmark output: :func:`write_bench_json` writes one ``BENCH_<name>.json``
snapshot per run (schema version, git commit, platform fingerprint, records;
an existing file of the same name is replaced) so CI can archive each run as
an artifact and the perf trajectory accumulates across commits.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.compression.registry import get_scheme
from repro.core.calibration import platform_fingerprint
# The timers live with the calibration; ``benchmarks/`` imports them from here.
from repro.core.calibration import time_callable, time_matrix_ops  # noqa: F401
from repro.obs import current_git_commit, platform_key
from repro.storage.mmapio import publish_file

#: Environment variable selecting where ``BENCH_*.json`` files are written.
BENCH_JSON_DIR_ENV = "BENCH_JSON_DIR"

#: Schema version stamped into every benchmark JSON file.
#: v2 added ``git_commit`` so each file is an attributable point on the
#: perf trajectory, not just a platform-stamped blob.  v3 stamps the
#: platform fingerprint from ``core/calibration.py`` (plus ``cpu_count``)
#: and its :func:`repro.obs.platform_key`, the machine class a reader
#: groups runs by.
BENCH_JSON_VERSION = 3


@dataclass(frozen=True)
class CompressionMeasurement:
    """Sizes of one mini-batch before and after compressing it with one scheme."""

    scheme: str
    dense_bytes: int
    compressed_bytes: int

    @property
    def ratio(self) -> float:
        return self.dense_bytes / max(self.compressed_bytes, 1)


def measure_compression(scheme_name: str, minibatch: np.ndarray) -> CompressionMeasurement:
    """Compress and decompress one batch, measuring its sizes.

    Codec timings are not taken here: one call is dominated by one-off
    costs, so Figure 12 times codecs with :func:`time_callable`.
    """
    compressed = get_scheme(scheme_name).compress(minibatch)
    if compressed.to_dense().shape != minibatch.shape:
        raise AssertionError(f"{scheme_name} round-trip changed the shape")
    return CompressionMeasurement(
        scheme=scheme_name,
        dense_bytes=minibatch.shape[0] * minibatch.shape[1] * 8,
        compressed_bytes=compressed.nbytes,
    )


def bench_json_path(name: str, directory: str | Path | None = None) -> Path:
    """Where ``write_bench_json`` will put the file for ``name``."""
    base = Path(directory) if directory is not None else Path(os.environ.get(BENCH_JSON_DIR_ENV, "."))
    return base / f"BENCH_{name}.json"


def write_bench_json(
    name: str,
    records: list[dict],
    directory: str | Path | None = None,
) -> Path:
    """Write benchmark ``records`` as ``BENCH_<name>.json`` and return the path.

    Records are plain dicts (dataclasses are converted); the envelope adds a
    schema version, the git commit of the source tree, and a platform
    fingerprint so accumulated files stay attributable and comparable across
    machines and commits.
    """
    path = bench_json_path(name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    fingerprint = {**platform_fingerprint(), "cpu_count": os.cpu_count()}
    payload = {
        "version": BENCH_JSON_VERSION,
        "name": name,
        "created_unix": time.time(),
        "git_commit": current_git_commit(),
        "platform": fingerprint,
        "platform_key": platform_key(fingerprint),
        "records": [asdict(r) if hasattr(r, "__dataclass_fields__") else dict(r) for r in records],
    }
    publish_file(path, json.dumps(payload, indent=2, sort_keys=True).encode())
    return path
