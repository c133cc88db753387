"""``repro.obs``: one observability substrate for live metrics and spans.

Two pieces, one import point:

* :mod:`repro.obs.metrics` — thread-safe counters/gauges/histograms on a
  process-global registry, fed by the instrumented hot paths (serving,
  buffer pool, encode, trainer, scan, compaction);
* :mod:`repro.obs.trace` — ``with span("engine.encode.batch", shard=i):``
  wall-time spans in a ring buffer, dumpable as Chrome trace JSON.

:func:`platform_key` names the machine class a benchmark result was
measured on, and :func:`current_git_commit` the source it ran;
``BENCH_*.json`` files, calibrations and ``bench/run.py`` results carry both.

``set_enabled(False)`` turns both metrics and spans off in one call — the
serving benchmark uses it to bound instrumentation overhead.
"""

import functools
import subprocess
from pathlib import Path

from repro.obs import metrics as metrics
from repro.obs import trace as trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
)
from repro.obs.metrics import snapshot as metrics_snapshot
from repro.obs.trace import Tracer, default_tracer, span, spans


def set_enabled(enabled: bool) -> None:
    """Enable/disable metrics *and* span recording process-wide."""
    metrics.set_enabled(enabled)
    trace.set_enabled(enabled)


def reset() -> None:
    """Zero the default metrics registry and drop recorded spans."""
    metrics.reset()
    trace.clear()


def platform_key(platform: dict | None) -> str:
    """Stable "same machine class" key from a platform fingerprint dict.

    Works for both the v3 fingerprint (``core/calibration.py`` shape) and
    the legacy v2 platform dict — both carry system/machine/python.
    """
    platform = platform or {}
    system = platform.get("system") or "unknown"
    machine = platform.get("machine") or "unknown"
    python = platform.get("python") or "0.0"
    major_minor = ".".join(str(python).split(".")[:2])
    return f"{system}-{machine}-py{major_minor}"


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


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "counter",
    "current_git_commit",
    "default_tracer",
    "gauge",
    "histogram",
    "metrics",
    "metrics_snapshot",
    "platform_key",
    "reset",
    "set_enabled",
    "span",
    "spans",
    "trace",
]
