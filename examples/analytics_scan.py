"""Analytics queries over compressed shards with ``Dataset.scan``.

Run with::

    python examples/analytics_scan.py

The scan executor answers predicates *inside* the compressed
representation where the scheme allows it: on value-indexed shards
(CVI, DVI) an equality or range comparison is evaluated against the
value dictionary — ``k`` comparisons instead of ``rows x cols`` decoded
cells — and the matching row mask is gathered straight through the
codes; their aggregates come off code frequencies.  On TOC shards every
column the query touches comes out of one pass over the decode tree, and
only the matching rows are decoded.  ``count``/``sum``/``min``/``max``
never materialise a single row on either.  Schemes without a fast path
(DEN, CSR, CLA, the byte codecs) fall back to decode-then-filter, so
every query is answerable over any manifest.

This example:

1. builds a quantised dataset (small value domain — the regime where
   dictionary probing shines) and shards it with ``Dataset.create``;
2. runs a selective predicate with and without push-down and checks the
   answers are identical;
3. projects columns, limits results, and computes aggregates;
4. shows the same queries from the command line via ``python -m repro scan``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.api import Dataset


def main() -> None:
    rng = np.random.default_rng(7)
    # Quantised features: a handful of distinct values per column, the
    # shape real categorical / binned data takes after preprocessing.
    features = rng.choice(
        [0.0, 0.25, 0.5, 1.0], size=(8_000, 40), p=(0.55, 0.2, 0.15, 0.1)
    )
    labels = rng.integers(0, 2, size=8_000).astype(np.float64)

    with tempfile.TemporaryDirectory(prefix="repro-scan-") as tmp:
        # A mixed manifest on purpose: value-indexed shards (DVI, CVI) take
        # the dictionary-probe fast path, TOC shards the column pass over
        # the decode tree, and CSR shards the dense fallback.
        schemes = ["DVI", "CVI", "TOC", "CSR"] * 2
        dataset = Dataset.create(
            Path(tmp) / "shards", features, labels, scheme=schemes, batch_size=1_000
        )
        stats = dataset.stats()
        mix = ", ".join(f"{k}x{v}" for k, v in sorted(stats.scheme_counts.items()))
        print(f"dataset: {stats.n_shards} shards ({mix})")

        # 1. A selective conjunction: answered on the value dictionaries of
        # value-indexed shards and off the decode tree of TOC shards,
        # decode-then-filter on CSR.
        where = "c3 == 0.25 and c7 == 1.0"
        pushed = dataset.scan(where=where)
        print(
            f"\nscan where {where!r}: {pushed.n_rows_matched} of "
            f"{pushed.n_rows_scanned} rows ({pushed.selectivity:.1%}); "
            f"push-down on {pushed.pushdown_shards} shards, "
            f"dense fallback on {pushed.fallback_shards}"
        )

        # Push-down changes the execution strategy, never the answer.
        fallback = dataset.scan(where=where, pushdown=False)
        assert np.array_equal(pushed.rows, fallback.rows)
        assert np.array_equal(pushed.row_ids, fallback.row_ids)
        print("pushed-down and decode-then-filter answers are bit-identical")

        # 2. Projection + limit: only the requested cells are materialised.
        head = dataset.scan(columns=[3, 7, 11], where=where, limit=5)
        print(f"\nfirst {head.rows.shape[0]} matches, columns c3/c7/c11:")
        for row_id, row in zip(head.row_ids, head.rows):
            print(f"  row {row_id:>5}: {row}")

        # 3. Aggregates: on value-indexed shards these come off code
        # frequencies, on TOC shards off one column pass over the decode
        # tree — neither materialises any rows at all.
        agg = dataset.scan(where=where, agg="count,sum:c5,mean:c5,min:c3,max:c7")
        print("\naggregates over the matching rows:")
        for key, value in agg.aggregates.items():
            print(f"  {key:<10} {value:g}")

        # Sanity-check against the dense NumPy reference.
        mask = (features[:, 3] == 0.25) & (features[:, 7] == 1.0)
        assert agg.aggregates["count"] == int(mask.sum())
        assert np.isclose(agg.aggregates["mean(c5)"], features[mask][:, 5].mean())

        # 4. The same queries from the shell:
        print(
            "\nCLI equivalents:\n"
            f"  python -m repro scan --shard-dir {dataset.path} "
            f"--where '{where}' --limit 5\n"
            f"  python -m repro scan --shard-dir {dataset.path} "
            "--where 'c0 >= 0.5' --agg count,mean:c5"
        )


if __name__ == "__main__":
    main()
