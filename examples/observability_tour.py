"""A tour of the observability layer: metrics and spans.

Run with::

    python examples/observability_tour.py

Every hot path in the pipeline feeds one process-global substrate —
counters/gauges/histograms in ``repro.obs.metrics``, wall-time spans in
``repro.obs.trace`` — so a single snapshot answers "what did this process
actually do": batches encoded, epochs trained, rows scanned with the
predicate pushed down, buffer-pool hits vs evictions, serving latency
percentiles.

This example:

1. trains out-of-core, serves online traffic, and runs a push-down scan —
   the normal facade calls, nothing observability-specific;
2. prints the metrics those calls left behind (``Dataset.stats`` with
   ``metrics=True``, ``service.metrics()``, the engine histograms);
3. dumps the recorded spans as Chrome trace JSON (load the file in
   ``chrome://tracing`` or ui.perfetto.dev to see the nesting).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.api import DATASET_PROFILES, Dataset, Estimator, open_service
from repro.obs import default_tracer

ROWS = 800
REQUESTS = 300


def run_pipeline(tmp: Path) -> tuple[Dataset, dict]:
    """Train, serve, and scan — the instrumented hot paths do the rest."""
    features, labels = DATASET_PROFILES["census"].classification(ROWS, seed=1)
    dataset = Dataset.create(
        tmp / "shards", features, labels,
        scheme="auto", batch_size=200, executor="serial", seed=0,
    )

    estimator = Estimator("logreg", epochs=3, executor="serial", learning_rate=0.3)
    estimator.fit(dataset)
    estimator.save(tmp / "checkpoints")

    service, _ = open_service(
        tmp / "checkpoints", max_batch_size=32, cache_size=128,
        store_kwargs=dict(decoded_cache_rows=ROWS),
    )
    rng = np.random.default_rng(0)
    with service:
        for row_id in rng.integers(0, ROWS, size=REQUESTS):
            service.predict_id(row_id)
        served = service.metrics()

    dataset.scan(where="c0 == 0", agg="count")
    return dataset, served


def show_metrics(dataset: Dataset, served: dict) -> None:
    stats = dataset.stats(metrics=True)
    counters = stats.metrics["counters"]
    print("process-wide counters (every instrumented subsystem):")
    for name in sorted(counters):
        print(f"  {name:<34} {counters[name]:,}")

    print("\nhistograms (timings in seconds, batch sizes in rows):")
    for name, summary in sorted(stats.metrics["histograms"].items()):
        print(
            f"  {name:<34} n={summary['count']:<4} "
            f"p50={summary['p50']:.2e} p99={summary['p99']:.2e}"
        )

    print("\nthis service instance (serve.* with the svc label stripped):")
    for name, value in sorted(served["counters"].items()):
        print(f"  {name:<34} {value:,}")
    request = served["histograms"]["serve.request.seconds"]
    print(
        f"  request latency: p50={request['p50'] * 1e6:.0f}µs "
        f"p99={request['p99'] * 1e6:.0f}µs over {request['count']} requests"
    )


def show_spans(tmp: Path) -> None:
    tracer = default_tracer()
    trace_path = tmp / "trace.json"
    trace_path.write_text(tracer.dump_chrome(indent=2))
    names = {}
    for record in tracer.spans():
        names[record["name"]] = names.get(record["name"], 0) + 1
    print(f"\n{len(tracer)} spans recorded ({dict(sorted(names.items()))})")
    print(f"chrome trace written to {trace_path} — load it in chrome://tracing")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-obs-tour-") as tmp:
        tmp = Path(tmp)
        dataset, served = run_pipeline(tmp)
        show_metrics(dataset, served)
        show_spans(tmp)

    print("\nThe same data is one command away: `python -m repro obs metrics`")
    print("and `python -m repro obs dump --format chrome`.")


if __name__ == "__main__":
    main()
