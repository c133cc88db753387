"""Predicate push-down scans vs decode-then-filter.

The scan executor answers equality / range predicates on value-indexed
shards by probing the value dictionary — ``k`` comparisons against the
dictionary plus one boolean gather through the codes — and on TOC shards
by taking the predicate's columns out of one pass over the decode tree,
instead of densifying ``rows x cols`` cells and masking.  This bench builds a
quantised dataset (small value domain, so CVI and DVI are at their best)
and a selective query (the regime push-down targets), shards the data once
per scheme, and times the scan executor with push-down against the
always-correct decode-then-filter fallback (``pushdown=False``) over the
same shard stream.

Acceptance gates (results land in ``BENCH_scan.json``):

* on the value-indexed schemes (CVI, DVI) and on TOC the pushed-down
  selection must beat decode-then-filter;
* on *every* registered scheme the pushed-down results — selected rows,
  row ids, and aggregates — must be bit-identical to the dense NumPy
  reference (checked end-to-end through ``Dataset.scan``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset
from repro.bench.runner import time_callable, write_bench_json
from repro.compression.registry import available_schemes, get_scheme
from repro.exec.scan import scan_shards

N_ROWS = 12_000
N_COLS = 60
BATCH_ROWS = 1_000
#: Tiny quantised value domain: the regime where dictionary probing wins.
VALUE_DOMAIN = (0.0, 0.25, 0.5, 1.0)
#: A selective conjunction (~2% of rows): the predicate answers come off the
#: dictionary and only the few matching rows are ever materialised.
WHERE = "c3 == 0.25 and c7 == 1.0"
AGG = "count,sum:c5,mean:c5,min:c3,max:c7"
REPEATS = 5
#: The schemes whose scan readers answer predicates without a dense decode;
#: these are the ones the bench requires to beat the fallback.
PUSHDOWN_SCHEMES = ("CVI", "DVI", "TOC")


@pytest.fixture(scope="module")
def quantised_data():
    rng = np.random.default_rng(11)
    features = rng.choice(VALUE_DOMAIN, size=(N_ROWS, N_COLS), p=(0.55, 0.2, 0.15, 0.1))
    labels = rng.integers(0, 2, size=N_ROWS).astype(np.float64)
    return features, labels


def _reference(features: np.ndarray):
    mask = (features[:, 3] == 0.25) & (features[:, 7] == 1.0)
    kept = features[mask]
    aggregates = {
        "count": int(mask.sum()),
        "sum(c5)": float(kept[:, 5].sum()),
        "mean(c5)": float(kept[:, 5].mean()),
        "min(c3)": float(kept[:, 3].min()),
        "max(c7)": float(kept[:, 7].max()),
    }
    return mask, kept, aggregates


def test_pushdown_beats_decode_then_filter(bench_json, tmp_path_factory, quantised_data):
    """The push-down gate: scans on the compressed form must beat densify-and-mask."""
    features, labels = quantised_data
    mask, kept, ref_aggregates = _reference(features)
    tmp_path = tmp_path_factory.mktemp("scan-bench")

    records = []
    speedups = {}
    for scheme in available_schemes():
        dataset = Dataset.create(
            tmp_path / scheme,
            features,
            labels,
            scheme=scheme,
            batch_size=BATCH_ROWS,
            shuffle=False,
            workers=1,
        )

        # Correctness before timing: end-to-end through Dataset.scan, both
        # strategies bit-identical to the dense reference.
        pushed = dataset.scan(where=WHERE)
        fallback = dataset.scan(where=WHERE, pushdown=False)
        assert np.array_equal(pushed.rows, kept), scheme
        assert np.array_equal(pushed.row_ids, np.flatnonzero(mask)), scheme
        assert np.array_equal(fallback.rows, kept), scheme
        agg = dataset.scan(where=WHERE, agg=AGG).aggregates
        assert agg["count"] == ref_aggregates["count"], scheme
        assert np.isclose(agg["sum(c5)"], ref_aggregates["sum(c5)"]), scheme
        assert np.isclose(agg["mean(c5)"], ref_aggregates["mean(c5)"]), scheme
        assert agg["min(c3)"] == ref_aggregates["min(c3)"], scheme
        assert agg["max(c7)"] == ref_aggregates["max(c7)"], scheme

        # Time the scan executor over pre-decoded shards: decode-then-filter
        # (pushdown=False densifies every shard, then masks) vs push-down,
        # with the payload-decode cost both strategies share factored out.
        shards = [
            (get_scheme(scheme).compress(features[start : start + BATCH_ROWS]), start)
            for start in range(0, N_ROWS, BATCH_ROWS)
        ]
        pushdown_seconds = time_callable(
            lambda: scan_shards(iter(shards), where=WHERE), REPEATS
        )
        fallback_seconds = time_callable(
            lambda: scan_shards(iter(shards), where=WHERE, pushdown=False), REPEATS
        )
        agg_seconds = time_callable(
            lambda: scan_shards(iter(shards), where=WHERE, agg=AGG), REPEATS
        )
        e2e_pushdown_seconds = time_callable(lambda: dataset.scan(where=WHERE), REPEATS)
        e2e_fallback_seconds = time_callable(
            lambda: dataset.scan(where=WHERE, pushdown=False), REPEATS
        )
        speedup = fallback_seconds / pushdown_seconds
        speedups[scheme] = speedup
        row = {
            "bench": "scan",
            "scheme": scheme,
            "n_rows": N_ROWS,
            "n_cols": N_COLS,
            "selectivity": pushed.selectivity,
            "pushdown_shards": pushed.pushdown_shards,
            "fallback_shards": pushed.fallback_shards,
            "pushdown_seconds": pushdown_seconds,
            "fallback_seconds": fallback_seconds,
            "aggregate_seconds": agg_seconds,
            "e2e_pushdown_seconds": e2e_pushdown_seconds,
            "e2e_fallback_seconds": e2e_fallback_seconds,
            "speedup": speedup,
            "results_match_dense": True,
        }
        records.append(row)
        bench_json("scan", **{k: v for k, v in row.items() if k != "bench"})
        print(
            f"{scheme:<8} pushdown {pushdown_seconds * 1e3:8.2f} ms  "
            f"fallback {fallback_seconds * 1e3:8.2f} ms  "
            f"agg {agg_seconds * 1e3:8.2f} ms  {speedup:5.2f}x "
            f"({pushed.pushdown_shards} pushed / {pushed.fallback_shards} dense shards)"
        )

    path = write_bench_json("scan", records)
    print(f"\nwrote scan comparison to {path}")

    # The gate: the dictionary probe and the column pass over C' must win.
    for scheme in PUSHDOWN_SCHEMES:
        assert speedups[scheme] > 1.0, (
            f"pushed-down scan on {scheme} did not beat decode-then-filter "
            f"({speedups[scheme]:.2f}x)"
        )
