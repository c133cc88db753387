"""Figure 11 — test error as a function of (simulated) wall-clock time."""

from __future__ import annotations

import pytest

from repro.bench.experiments import run_fig11, store_batches, train_from_pool
from repro.bench.reporting import format_table
from repro.bench.workloads import labeled_dataset
from repro.data.minibatch import split_minibatches
from repro.ml.models import FeedForwardNetwork


@pytest.mark.parametrize("scheme", ("TOC", "DEN", "CSR"))
def test_one_epoch_through_storage(benchmark, scheme):
    """One epoch of the experiments' stream: pool read, decode, gradient step."""
    features, labels = labeled_dataset("mnist", 500, seed=0)
    batches = split_minibatches(features, labels, batch_size=125, seed=0)
    pool, _sizes = store_batches(batches, scheme, budget_bytes=10**9)
    targets = [y for _x, y in batches]
    model = FeedForwardNetwork(features.shape[1], hidden_sizes=(32, 16), n_classes=10, seed=0)
    benchmark.pedantic(
        train_from_pool, args=(model, pool, scheme, targets, 1, 0.5), rounds=1, iterations=3
    )


def test_report_figure11(benchmark, capsys):
    def measure():
        small = run_fig11(
            dataset="mnist", n_rows=1000, test_rows=300, epochs=3, memory_pressure=True
        )
        big = run_fig11(
            dataset="mnist", n_rows=1000, test_rows=300, epochs=3, memory_pressure=False
        )
        return small, big

    small_ram, big_ram = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        for title, result in (("small RAM", small_ram), ("big RAM", big_ram)):
            for label, curve in result["curves"].items():
                epochs = [str(i + 1) for i in range(len(curve["time"]))]
                rows = {
                    "time [s]": dict(zip(epochs, curve["time"])),
                    "error [%]": dict(zip(epochs, curve["error"])),
                }
                print(format_table(f"Figure 11 ({title}) — {label}", rows, epochs, "{:.3f}"))
            print()
    # Under memory pressure BismarckTOC finishes its epochs sooner than the
    # DEN reference (the spilling formats pay IO every epoch).
    toc_time = small_ram["curves"]["BismarckTOC"]["time"][-1]
    den_time = small_ram["curves"]["ReferenceDEN"]["time"][-1]
    assert toc_time < den_time
