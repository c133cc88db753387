"""Measurement helpers: compression ratios and operation timings.

Besides the timing helpers, this module owns the machine-readable benchmark
output: :func:`write_bench_json` writes one ``BENCH_<name>.json`` snapshot
per run (schema version, git commit, platform fingerprint, records; an
existing file of the same name is replaced) so CI can archive each run as an
artifact and the perf trajectory accumulates across commits.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.compression.registry import get_scheme
from repro.obs import platform_key
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


@functools.lru_cache(maxsize=1)
def current_git_commit() -> str | None:
    """HEAD commit hash of the repository containing this module, or None.

    Resolved relative to the package source (not the process CWD), so bench
    sessions launched from anywhere still attribute to the right commit.
    Returns ``None`` when the package is not itself inside a git checkout —
    an installed wheel whose site-packages happens to live under some
    unrelated repository must not stamp that repository's HEAD — or when
    git is unavailable.  Cached: HEAD cannot change within a process.
    """
    package_dir = Path(__file__).resolve().parent
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=package_dir,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    lines = result.stdout.strip().splitlines()
    if len(lines) != 2:
        return None
    toplevel, commit = Path(lines[0]).resolve(), lines[1]
    return commit if commit and package_dir.is_relative_to(toplevel) else None


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
    # Function-level import: core.calibration imports this module at top level.
    from repro.core.calibration import platform_fingerprint

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


def time_callable(func, repeats: int = 3, *, warmup: int = 1) -> float:
    """Median wall-clock seconds of ``repeats`` calls, after ``warmup`` untimed ones.

    The first call of a cold kernel pays one-off costs (lazy imports, cache
    population, allocator warm-up) that do not recur; including it in a
    3-sample median skews small measurements badly, so it is burned off
    before sampling starts.  ``warmup=0`` restores the cold-start behaviour.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    for _ in range(warmup):
        func()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def time_matrix_ops(compressed, n_cols: int, n_rows: int, m_width: int = 20, repeats: int = 3,
                    seed: int = 0) -> dict[str, float]:
    """Time the five matrix operations of Figure 8 on one compressed batch."""
    rng = np.random.default_rng(seed)
    v_right = rng.normal(size=n_cols)
    v_left = rng.normal(size=n_rows)
    m_right = rng.normal(size=(n_cols, m_width))
    m_left = rng.normal(size=(m_width, n_rows))
    return {
        "A*c": time_callable(lambda: compressed.scale(2.0), repeats),
        "A*v": time_callable(lambda: compressed.matvec(v_right), repeats),
        "A*M": time_callable(lambda: compressed.matmat(m_right), repeats),
        "v*A": time_callable(lambda: compressed.rmatvec(v_left), repeats),
        "M*A": time_callable(lambda: compressed.rmatmat(m_left), repeats),
    }
