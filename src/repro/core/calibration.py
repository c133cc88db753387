"""Measured-kernel calibration: the cost model behind every scheme pick.

A scheme's compression ratio says nothing about how fast *this machine*
runs its ``matmat`` or ``row_slice`` kernels — the paper's Figure 8 shows
kernel costs diverging exactly where ratios look alike — so the advisor
ranks schemes by measured cost:

* :func:`calibrate` times every registered scheme's kernels (``matvec`` /
  ``matmat`` / ``rmatvec`` / ``rmatmat`` / ``scale`` / ``row_slice`` /
  ``decode``) on synthetic batches at a few sparsity levels, reusing the
  benchmark harness timers (:func:`repro.bench.runner.time_matrix_ops`);
* the result — a :class:`Calibration` — persists as ``calibration.json``
  next to the dataset, stamped with the platform fingerprint and source
  commit exactly like ``write_bench_json`` snapshots, so the measurements
  stay attributable and a different machine recalibrates instead of
  trusting them;
* :func:`ensure_calibration` loads lazily (process cache → on-disk file →
  fresh pass) and recomputes only when the file is missing or stale
  (version bump, different platform, schemes not covered);
* :meth:`Calibration.expected_cost` scores ``bytes × expected op mix``:
  each workload in :data:`WORKLOAD_MIXES` weighs the ops it actually runs
  (``"train"`` is matmat-heavy epochs, ``"serve"`` is row_slice lookups,
  ``"scan"`` is decode+gather), plus an I/O term from the compressed bytes
  over the assumed disk bandwidth.

The advisor (:func:`repro.core.advisor.recommend_scheme`) ranks by this
model and nothing else; the engine resolves one calibration per dataset
directory (:func:`repro.engine.encode.advice_calibration`).
"""

from __future__ import annotations

import json
import os
import platform as platform_module
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bench.runner import current_git_commit, time_callable, time_matrix_ops
from repro.compression.registry import available_schemes, get_scheme
from repro.storage.mmapio import publish_file

#: Filename the calibration persists under, next to a dataset's manifest.
CALIBRATION_NAME = "calibration.json"

#: Schema version of the persisted file; bumping it makes old files stale.
CALIBRATION_VERSION = 1

#: Synthetic batch shape the kernels are timed on.  Small enough that a full
#: pass over every scheme stays well under a second, large enough that the
#: per-element timings rank the schemes the way real mini-batches do.
CALIBRATION_ROWS = 96
CALIBRATION_COLS = 32

#: Fractions of exact zeros the synthetic batches are generated at.  A
#: sample's own sparsity is matched to the nearest level at scoring time.
SPARSITY_LEVELS = (0.0, 0.5, 0.9)

#: Kernel names a calibration times for every scheme.
CALIBRATION_OPS = (
    "matvec",
    "matmat",
    "rmatvec",
    "rmatmat",
    "scale",
    "row_slice",
    "decode",
)

#: Expected op mix per workload: how many times each kernel runs per element
#: per pass.  ``train`` is one MGD epoch (forward ``A @ M``, gradient
#: ``M @ A``); ``serve`` is point lookups through ``row_slice``; ``scan`` is
#: decode-then-gather analytics.  Byte-block schemes pay their inflate
#: *inside* the measured kernels, so the mix needs no explicit decode term
#: for them — the measurement already contains it.
WORKLOAD_MIXES: dict[str, dict[str, float]] = {
    "train": {"matmat": 1.0, "rmatmat": 1.0},
    "serve": {"row_slice": 1.0},
    "scan": {"decode": 1.0, "row_slice": 0.25},
}

#: Valid ``workload=`` values, in a stable order for error messages.
WORKLOADS = tuple(sorted(WORKLOAD_MIXES))

#: The workload every ``"auto"`` pick is scored for unless told otherwise.
DEFAULT_WORKLOAD = "train"

#: Assumed sequential disk bandwidth for the I/O term of the cost model.
#: An assumption of this model alone: the engine models no disk, and the
#: trainer has no bandwidth setting to match.
DEFAULT_DISK_BANDWIDTH = 150e6

#: Mapping from the Figure 8 op labels ``time_matrix_ops`` reports to the
#: kernel names the calibration stores.
_FIGURE8_OPS = {
    "A*v": "matvec", "A*M": "matmat", "v*A": "rmatvec", "M*A": "rmatmat", "A*c": "scale",
}

#: Process-wide cache of this process's own timing pass: kernel timings are
#: per-machine, not per-dataset, so one pass serves every dataset this
#: process touches.  A file loaded from a directory never lands here.
_PROCESS_CACHE: "Calibration | None" = None


def platform_fingerprint() -> dict:
    """The machine identity a calibration is valid for."""
    return {
        "python": platform_module.python_version(),
        "machine": platform_module.machine(),
        "system": platform_module.system(),
    }


def check_workload(workload) -> str:
    """``workload`` itself when it names an op mix; ``ValueError`` otherwise."""
    if workload not in WORKLOAD_MIXES:
        raise ValueError(
            f"unknown workload {workload!r}; valid workloads: {list(WORKLOADS)}"
        )
    return workload


def _level_key(level: float) -> str:
    """JSON object key for one sparsity level (``0.5`` -> ``"0.5"``)."""
    return repr(float(level))


def synthetic_batch(
    rows: int, cols: int, sparsity: float, seed: int = 0
) -> np.ndarray:
    """One calibration batch: quantised values with ``sparsity`` exact zeros.

    Values are rounded to one decimal so the value-index and code-table
    schemes see the repetition real feature data has; the zero mask gives
    the sparse formats their implicit zeros.
    """
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, cols)).round(1)
    mask = rng.random((rows, cols)) >= sparsity
    batch = values * mask
    # Rounding can itself produce zeros; that only nudges the effective
    # sparsity upward, which the nearest-level match absorbs.
    return batch


@dataclass(frozen=True)
class Calibration:
    """Measured per-element kernel costs for every scheme on this machine."""

    version: int
    created_unix: float
    git_commit: str | None
    platform: dict
    rows: int
    cols: int
    sparsity_levels: tuple[float, ...]
    #: ``scheme -> sparsity-level key -> op -> seconds per matrix element``.
    timings: dict[str, dict[str, dict[str, float]]]

    # -- validity --------------------------------------------------------------

    def schemes(self) -> list[str]:
        return sorted(self.timings)

    def covers(self, schemes) -> bool:
        """Whether every named scheme has a full set of op timings."""
        return all(
            name in self.timings
            and all(
                set(per_op) >= set(CALIBRATION_OPS)
                for per_op in self.timings[name].values()
            )
            for name in schemes
        )

    def is_stale(self, schemes=None) -> bool:
        """Whether this calibration should be recomputed rather than trusted.

        Stale means: schema version changed, measured on a different
        platform, or missing timings for a requested scheme.  A different
        source commit does *not* make it stale — kernel speed rarely changes
        commit to commit, and the stamp keeps the provenance either way.
        """
        if self.version != CALIBRATION_VERSION:
            return True
        fingerprint = platform_fingerprint()
        if {k: self.platform.get(k) for k in fingerprint} != fingerprint:
            return True
        if not self.sparsity_levels or not self.timings:
            return True
        return not self.covers(schemes if schemes is not None else [])

    # -- the cost model --------------------------------------------------------

    def nearest_level(self, sparsity: float) -> str:
        """The calibrated sparsity level closest to ``sparsity`` (as a key)."""
        best = min(self.sparsity_levels, key=lambda level: abs(level - sparsity))
        return _level_key(best)

    def op_seconds(self, scheme: str, op: str, sparsity: float) -> float:
        """Measured seconds per matrix element for one kernel of one scheme."""
        try:
            return self.timings[scheme][self.nearest_level(sparsity)][op]
        except KeyError:
            raise KeyError(
                f"calibration has no timing for scheme {scheme!r} op {op!r}; "
                f"recalibrate (covered schemes: {self.schemes()})"
            ) from None

    def expected_cost(
        self,
        scheme: str,
        *,
        workload: str,
        sparsity: float,
        bytes_per_element: float,
        disk_bandwidth: float = DEFAULT_DISK_BANDWIDTH,
    ) -> float:
        """Expected seconds per matrix element to run ``workload`` once.

        ``bytes × expected op mix``: the compute term sums the measured
        kernel times weighted by the workload's op mix; the I/O term charges
        the compressed bytes at ``disk_bandwidth``.  Lower is better.
        """
        compute = sum(
            weight * self.op_seconds(scheme, op, sparsity)
            for op, weight in WORKLOAD_MIXES[check_workload(workload)].items()
        )
        return compute + bytes_per_element / disk_bandwidth

    # -- persistence -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "created_unix": self.created_unix,
            "git_commit": self.git_commit,
            "platform": dict(self.platform),
            "rows": self.rows,
            "cols": self.cols,
            "sparsity_levels": list(self.sparsity_levels),
            "timings": self.timings,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Calibration":
        return cls(
            version=int(payload["version"]),
            created_unix=float(payload["created_unix"]),
            git_commit=payload.get("git_commit"),
            platform=dict(payload.get("platform", {})),
            rows=int(payload["rows"]),
            cols=int(payload["cols"]),
            sparsity_levels=tuple(float(x) for x in payload["sparsity_levels"]),
            timings={
                scheme: {
                    level: {op: float(seconds) for op, seconds in per_op.items()}
                    for level, per_op in per_level.items()
                }
                for scheme, per_level in payload["timings"].items()
            },
        )

    def save(self, path: Path | str) -> Path:
        """Write the calibration as JSON (parent directories created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        publish_file(path, json.dumps(self.to_dict(), indent=2, sort_keys=True).encode())
        return path

    @classmethod
    def load(cls, path: Path | str) -> "Calibration | None":
        """Read a persisted calibration; ``None`` on a missing/corrupt file."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
            return cls.from_dict(payload)
        except (OSError, ValueError, KeyError, TypeError):
            return None


def calibration_path(directory: Path | str) -> Path:
    """Where a dataset directory keeps its calibration file."""
    return Path(directory) / CALIBRATION_NAME


def _time_scheme(
    scheme_name: str, batch: np.ndarray, repeats: int
) -> dict[str, float]:
    """Per-element seconds of every calibrated op for one scheme on one batch."""
    rows, cols = batch.shape
    elements = rows * cols
    compressed = get_scheme(scheme_name).compress(batch)
    figure8 = time_matrix_ops(compressed, cols, rows, m_width=8, repeats=repeats)
    seconds = {_FIGURE8_OPS[label]: value for label, value in figure8.items()}
    slice_index = np.arange(0, rows, max(1, rows // 16))
    seconds["row_slice"] = time_callable(
        lambda: compressed.row_slice(slice_index), repeats
    )
    seconds["decode"] = time_callable(compressed.to_dense, repeats)
    return {op: value / elements for op, value in seconds.items()}


def calibrate(
    schemes=None,
    *,
    rows: int = CALIBRATION_ROWS,
    cols: int = CALIBRATION_COLS,
    sparsity_levels=SPARSITY_LEVELS,
    repeats: int = 2,
    seed: int = 0,
) -> Calibration:
    """Time every scheme's kernels on synthetic batches; return the result.

    This is the one-time measurement pass.  It does not persist anything —
    :func:`ensure_calibration` handles caching and the on-disk file.
    """
    names = list(schemes) if schemes is not None else available_schemes()
    levels = tuple(float(level) for level in sparsity_levels)
    if not names:
        raise ValueError("at least one scheme is required")
    if not levels:
        raise ValueError("at least one sparsity level is required")
    timings: dict[str, dict[str, dict[str, float]]] = {}
    for index, level in enumerate(levels):
        batch = synthetic_batch(rows, cols, level, seed=seed + index)
        for name in names:
            timings.setdefault(name, {})[_level_key(level)] = _time_scheme(
                name, batch, repeats
            )
    return Calibration(
        version=CALIBRATION_VERSION,
        created_unix=time.time(),
        git_commit=current_git_commit(),
        platform={**platform_fingerprint(), "cpu_count": os.cpu_count()},
        rows=rows,
        cols=cols,
        sparsity_levels=levels,
        timings=timings,
    )


def ensure_calibration(
    directory: Path | str | None = None,
    schemes=None,
    *,
    refresh: bool = False,
    **calibrate_kwargs,
) -> Calibration:
    """A valid calibration for this machine, computed at most once.

    Resolution order: the on-disk ``calibration.json`` under ``directory``
    (if given), then the process-wide cache, then a fresh :func:`calibrate`
    pass.  A stale file (see :meth:`Calibration.is_stale`) is recomputed and
    overwritten; a valid cached calibration is copied down to a directory
    that lacks one, so the file always ends up next to the dataset.
    ``refresh=True`` forces a fresh pass.

    Only this process's own measurements are cached: a file loaded from a
    directory answers for that directory alone, so one dataset's (possibly
    hand-written) calibration never steers the picks made for another.
    """
    global _PROCESS_CACHE
    names = list(schemes) if schemes is not None else available_schemes()
    path = calibration_path(directory) if directory is not None else None
    if not refresh:
        if path is not None and path.exists():
            loaded = Calibration.load(path)
            if loaded is not None and not loaded.is_stale(names):
                return loaded
        cached = _PROCESS_CACHE
        if cached is not None and not cached.is_stale(names):
            if path is not None and not path.exists():
                cached.save(path)
            return cached
    calibration = calibrate(names, **calibrate_kwargs)
    if path is not None:
        calibration.save(path)
    _PROCESS_CACHE = calibration
    return calibration


def invalidate_cache() -> None:
    """Drop the process-wide calibration cache (test isolation helper)."""
    global _PROCESS_CACHE
    _PROCESS_CACHE = None


__all__ = [
    "CALIBRATION_NAME",
    "CALIBRATION_OPS",
    "CALIBRATION_VERSION",
    "Calibration",
    "DEFAULT_DISK_BANDWIDTH",
    "DEFAULT_WORKLOAD",
    "SPARSITY_LEVELS",
    "WORKLOADS",
    "WORKLOAD_MIXES",
    "calibrate",
    "calibration_path",
    "check_workload",
    "ensure_calibration",
    "invalidate_cache",
    "platform_fingerprint",
    "synthetic_batch",
]
