"""Out-of-core MGD through the facade: shard, spill, stream, train.

Run with::

    python examples/out_of_core_training.py

``Dataset.create`` shards the dataset into compressed blob files with the
multi-worker encode pipeline; ``Estimator.fit(dataset)`` streams them
through a byte-budgeted buffer pool, in order, on the training thread.
The buffer budget is fixed at twice the TOC footprint for every scheme, so
the effect behind the paper's end-to-end results (Tables 6-7, Figure 9)
shows up directly: TOC stays resident after the first epoch while the bulky
formats re-read every batch from disk on every epoch.  The "final loss"
column is the last epoch's mean batch loss, each batch's taken at the
weights its step started from.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.api import DATASET_PROFILES, Dataset, Estimator

ROWS = 4000
EPOCHS = 5
BATCH_SIZE = 250
SIMULATED_DISK_BANDWIDTH = 20e6  # bytes / second


def main() -> None:
    features, labels = DATASET_PROFILES["kdd99"].classification(ROWS, seed=3)

    with tempfile.TemporaryDirectory(prefix="repro-ooc-") as tmp:
        # Size the "RAM" so that TOC fits comfortably but dense does not:
        # encode once with TOC and read the payload size off the stats.
        toc_bytes = (
            Dataset.create(
                Path(tmp) / "sizing", features, labels, scheme="TOC",
                batch_size=BATCH_SIZE, executor="serial",
            )
            .stats()
            .payload_bytes
        )
        budget = 2 * toc_bytes
        dense_mb = features.size * 8 / 1e6
        print(f"dataset: {features.shape[0]} rows x {features.shape[1]} cols, "
              f"dense {dense_mb:.1f} MB, TOC {toc_bytes / 1e6:.2f} MB, "
              f"memory budget {budget / 1e6:.2f} MB\n")

        print(f"{'scheme':<8} {'payload MB':>10} {'fits?':>6} {'hit rate':>9} "
              f"{'encode s':>9} {'sim. IO s':>10} {'final loss':>11}")
        for scheme_name in ("TOC", "CVI", "CSR", "DEN"):
            dataset = Dataset.create(
                Path(tmp) / scheme_name, features, labels, scheme=scheme_name,
                batch_size=BATCH_SIZE,
            )
            estimator = Estimator(
                "logreg",
                epochs=EPOCHS,
                learning_rate=0.3,
                batch_size=BATCH_SIZE,
                budget_bytes=budget,
                disk_bandwidth_bytes_per_sec=SIMULATED_DISK_BANDWIDTH,
            )
            report = estimator.fit(dataset)
            ooc, stats = report.ooc, dataset.stats()
            print(
                f"{scheme_name:<8} {ooc.total_payload_bytes / 1e6:>10.2f} "
                f"{str(ooc.fits_in_memory):>6} {ooc.pool_stats.hit_rate:>9.0%} "
                f"{stats.encode_seconds:>9.3f} {ooc.total_io_seconds:>10.4f} "
                f"{report.final_loss:>11.4f}"
            )

    print("\nWith the tight budget only the well-compressed formats stay resident, so")
    print("their later epochs cost no IO — the effect the paper's Tables 6-7 measure.")
    print("Try `python -m repro train-ooc --help` for the CLI version with knobs.")


if __name__ == "__main__":
    main()
