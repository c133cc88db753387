"""Measured-cost advisor vs the flat decode penalty, end to end.

The retired flat rule (kept below as :func:`flat_penalty_pick`, the gate's
baseline) ranked schemes by compression ratio with a guessed 0.25 penalty
for decode-only schemes — a rule that systematically mis-picks where
Figure 8 says kernel costs diverge (TOC's ``row_slice`` runs orders of
magnitude slower than DEN's on moderately-sparse data, yet the flat rule
picks TOC there on ratio alone).  This bench builds a mixed-sparsity dataset
(moderately-sparse census batches next to dense noise), runs both advisors
over it, and then *measures* one epoch of each workload over each advisor's
picks.

The acceptance gate, per workload (``train`` and ``serve``): the calibrated
pick's measured epoch time must not exceed the flat-penalty pick's (small
tolerance for timer noise when the picks differ; epoch times are memoised
per distinct pick-vector, so identical picks compare exactly equal).  The
calibration round-trip — persist, reload, identical recommendation — is
asserted on the way.  Results land in ``BENCH_advisor.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import time_callable, write_bench_json
from repro.bench.workloads import minibatch_for
from repro.compression.registry import get_scheme
from repro.core.advisor import recommend_scheme
from repro.core.calibration import Calibration, calibration_path, ensure_calibration

N_CENSUS_BATCHES = 3
N_DENSE_BATCHES = 3
BATCH_ROWS = 200
#: Slack for scheduler noise when the two advisors picked different schemes;
#: identical pick-vectors share one memoised measurement and compare exactly.
TOLERANCE = 1.10
WORKLOADS_UNDER_TEST = ("train", "serve")
EPOCH_REPEATS = 3


@pytest.fixture(scope="module")
def mixed_batches() -> list[np.ndarray]:
    """Moderately-sparse census batches interleaved with dense noise."""
    rng = np.random.default_rng(11)
    batches = [
        minibatch_for("census", BATCH_ROWS, seed=seed) for seed in range(N_CENSUS_BATCHES)
    ]
    for _ in range(N_DENSE_BATCHES):
        batches.append(rng.normal(size=(BATCH_ROWS, 40)))
    return batches


@pytest.fixture(scope="module")
def calibration(tmp_path_factory):
    """One measured calibration, persisted and reloaded through its file."""
    directory = tmp_path_factory.mktemp("advisor-bench")
    fresh = ensure_calibration(directory)
    reloaded = Calibration.load(calibration_path(directory))
    assert reloaded is not None and not reloaded.is_stale(fresh.schemes())
    return reloaded


def flat_penalty_pick(batch: np.ndarray, calibration: Calibration) -> str:
    """The retired flat rule: the best ratio, x0.25 for decode-only schemes."""
    reports = recommend_scheme(batch, calibration=calibration).reports
    return min(
        reports,
        key=lambda r: (-r.compression_ratio * (1.0 if r.supports_direct_ops else 0.25), r.name),
    ).name


def _epoch_seconds(batches, picks, workload: str) -> float:
    """Measured seconds for one ``workload`` pass over the picked schemes."""
    compressed = [get_scheme(name).compress(batch) for name, batch in zip(picks, batches)]
    if workload == "train":
        rng = np.random.default_rng(0)
        rights = [rng.normal(size=(c.shape[1], 8)) for c in compressed]
        lefts = [rng.normal(size=(8, c.shape[0])) for c in compressed]

        def epoch():
            for matrix, right, left in zip(compressed, rights, lefts):
                matrix.matmat(right)
                matrix.rmatmat(left)
    else:  # serve: scattered point lookups
        lookup = np.arange(0, BATCH_ROWS, BATCH_ROWS // 32)

        def epoch():
            for matrix in compressed:
                matrix.row_slice(lookup)

    return time_callable(epoch, repeats=EPOCH_REPEATS)


def test_calibrated_picks_beat_flat_penalty_picks(bench_json, mixed_batches, calibration):
    """The gate: measured-cost advice must not lose to the flat 0.25 guess."""
    flat_picks = tuple(flat_penalty_pick(batch, calibration) for batch in mixed_batches)
    epoch_cache: dict[tuple, float] = {}

    def measured(picks, workload):
        key = (picks, workload)
        if key not in epoch_cache:
            epoch_cache[key] = _epoch_seconds(mixed_batches, picks, workload)
        return epoch_cache[key]

    rows = []
    for workload in WORKLOADS_UNDER_TEST:
        calibrated_picks = tuple(
            recommend_scheme(batch, workload=workload, calibration=calibration).best.name
            for batch in mixed_batches
        )
        # Round-trip acceptance: the reloaded file is the calibration used
        # above; a second pass over it must reproduce the picks exactly.
        assert calibrated_picks == tuple(
            recommend_scheme(batch, workload=workload, calibration=calibration).best.name
            for batch in mixed_batches
        )
        flat_seconds = measured(flat_picks, workload)
        calibrated_seconds = measured(calibrated_picks, workload)
        row = {
            "workload": workload,
            "flat_picks": list(flat_picks),
            "calibrated_picks": list(calibrated_picks),
            "picks_differ": calibrated_picks != flat_picks,
            "flat_epoch_seconds": flat_seconds,
            "calibrated_epoch_seconds": calibrated_seconds,
            "speedup": flat_seconds / calibrated_seconds if calibrated_seconds else 1.0,
        }
        rows.append(row)
        bench_json("advisor", **row)
        print(
            f"\n{workload}: flat {flat_seconds * 1e3:.3f}ms {list(flat_picks)} vs "
            f"calibrated {calibrated_seconds * 1e3:.3f}ms {list(calibrated_picks)}"
        )
        assert calibrated_seconds <= flat_seconds * TOLERANCE, (
            f"calibrated {workload} pick {calibrated_picks} measured slower than "
            f"flat pick {flat_picks}: {calibrated_seconds:.6f}s vs {flat_seconds:.6f}s"
        )

    path = write_bench_json("advisor", rows)
    print(f"wrote advisor comparison to {path}")
