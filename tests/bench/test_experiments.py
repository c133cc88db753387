"""Smoke and shape tests for every experiment driver (one per table/figure)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.bench import experiments
from repro.bench.workloads import labeled_dataset
from repro.compression.registry import available_schemes, get_scheme
from repro.data.minibatch import split_minibatches
from repro.ml.models import LogisticRegressionModel
from repro.ml.optimizer import GradientDescentConfig, MiniBatchGradientDescent


class TestFig2:
    def test_curves_cover_all_variants(self):
        result = experiments.run_fig2(n_rows=300, epochs=4)
        assert set(result["curves"]) == {
            "SGD",
            "MGD (250 rows)",
            "MGD-20%",
            "MGD-50%",
            "MGD-80%",
            "BGD",
        }
        assert all(len(curve) == 4 for curve in result["curves"].values())

    def test_accuracies_are_probabilities(self):
        result = experiments.run_fig2(n_rows=200, epochs=3)
        for curve in result["curves"].values():
            assert all(0.0 <= acc <= 1.0 for acc in curve)


class TestCompressionRatioFigures:
    def test_fig5_structure_and_shape_claims(self):
        result = experiments.run_fig5(batch_sizes=(50, 250), datasets=("census", "rcv1", "deep1b"))
        assert set(result) == {"census", "rcv1", "deep1b"}
        census = result["census"]
        # TOC must beat the light-weight matrix schemes on moderate sparsity.
        for scheme in ("CSR", "CVI", "DVI", "CLA"):
            assert census["TOC"][250] > census[scheme][250]
        # On the very sparse profile TOC tracks CSR.
        rcv1 = result["rcv1"]
        assert rcv1["TOC"][250] > 0.5 * rcv1["CSR"][250]
        # Nothing compresses the dense continuous profile by much.
        deep = result["deep1b"]
        assert all(ratio < 2.0 for per_size in deep.values() for ratio in per_size.values())

    def test_fig6_ablation_ordering(self):
        result = experiments.run_fig6(batch_sizes=(250,), datasets=("census",))
        census = result["census"]
        assert (
            census["TOC"][250]
            > census["TOC_SPARSE_AND_LOGICAL"][250]
            > census["TOC_SPARSE"][250]
        )

    def test_fig7_ratio_grows_with_batch_size(self):
        result = experiments.run_fig7(fractions=(0.1, 1.0), datasets=("census",), total_rows=600)
        census = result["census"]
        assert census["TOC"][1.0] >= census["TOC"][0.1]


class TestMatrixOpFigure:
    def test_fig8_structure(self):
        result = experiments.run_fig8(datasets=("census",), batch_size=60, repeats=1)
        census = result["census"]
        assert set(census) == set(experiments.OP_SCHEMES)
        for timings in census.values():
            assert set(timings) == {"A*c", "A*v", "A*M", "v*A", "M*A"}

    def test_fig8_gzip_pays_decompression_on_scale(self):
        result = experiments.run_fig8(datasets=("census",), batch_size=120, repeats=1)
        census = result["census"]
        # Scaling a TOC batch touches only the first layer; Gzip must inflate
        # the whole batch first, so it is much slower.
        assert census["TOC"]["A*c"] < census["Gzip"]["A*c"]


class TestCodecTimesFigure:
    def test_fig12_structure(self):
        result = experiments.run_fig12(datasets=("census",), batch_size=60)
        census = result["census"]
        assert set(census) == {"Snappy", "Gzip", "TOC"}
        for timings in census.values():
            assert timings["compress"] >= 0
            assert timings["decompress"] >= 0

    def test_fig12_times_each_codec_warm_not_once(self, monkeypatch):
        """A cell is a median after a warm-up, so each codec compresses more than once."""
        calls: Counter = Counter()
        for name in available_schemes(include_ablations=True):
            scheme = get_scheme(name)

            def counted(batch, name=name, compress=scheme.compress):
                calls[name] += 1
                return compress(batch)

            # A scheme is a class every later test shares: monkeypatch undoes this.
            monkeypatch.setattr(scheme, "compress", counted)
        experiments.run_fig12(datasets=("census",), batch_size=60)
        assert set(calls) == {"Snappy", "Gzip", "TOC"}
        assert all(count > 1 for count in calls.values()), calls


class TestEndToEndDrivers:
    def test_run_end_to_end_cell(self):
        cell = experiments.run_end_to_end(
            "census", "TOC", "LR", n_rows=200, memory_budget_bytes=10**7, epochs=1, batch_size=50
        )
        assert cell["total_seconds"] > 0
        assert cell["scheme"] == "TOC"
        assert cell["fits_in_memory"] in (True, False)

    def test_table6_structure(self):
        result = experiments.run_table6(
            datasets=("census",),
            models=("LR",),
            schemes=("TOC", "DEN"),
            small_rows=150,
            large_rows=300,
            epochs=1,
            batch_size=50,
        )
        assert set(result) == {"census-small", "census-large"}
        assert set(result["census-small"]) == {"TOC", "DEN"}

    def test_table7_uses_other_datasets(self):
        result = experiments.run_table7(
            models=("LR",),
            schemes=("TOC",),
            small_rows=100,
            large_rows=200,
            epochs=1,
            batch_size=50,
        )
        assert set(result) == {"census-small", "census-large", "kdd99-small", "kdd99-large"}

    def test_fig9_structure(self):
        result = experiments.run_fig9(
            dataset="census",
            schemes=("TOC", "DEN"),
            row_counts=(100, 200),
            models=("LR",),
            epochs=1,
            batch_size=50,
        )
        assert set(result) == {"LR"}
        assert set(result["LR"]) == {"TOC", "DEN"}
        assert set(result["LR"]["TOC"]) == {100, 200}

    def test_fig10_uses_toc_variants(self):
        result = experiments.run_fig10(
            dataset="census", row_counts=(100,), models=("LR",), epochs=1, batch_size=50
        )
        assert set(result["LR"]) == {"DEN", "TOC_SPARSE", "TOC_SPARSE_AND_LOGICAL", "TOC"}

    def test_fig11_structure(self):
        result = experiments.run_fig11(
            dataset="census", n_rows=200, test_rows=100, epochs=2, batch_size=50
        )
        assert set(result["curves"]) == {"BismarckTOC", "ReferenceDEN", "ReferenceCSR"}
        for curve in result["curves"].values():
            assert len(curve["time"]) == 2
            assert len(curve["error"]) == 2
            assert curve["time"] == sorted(curve["time"])
        # Every scheme trains the same models: only the time axis differs.
        errors = [curve["error"] for curve in result["curves"].values()]
        assert errors[1:] == errors[:1] * 2


class TestPoolStream:
    """The end-to-end experiments' batches: stored in a pool, streamed through MGD."""

    @pytest.fixture(scope="class")
    def batches(self):
        features, labels = labeled_dataset("census", 300, seed=3)
        return split_minibatches(features, labels, batch_size=50, seed=0)

    @pytest.mark.parametrize("scheme_name", experiments.END_TO_END_SCHEMES)
    def test_stores_every_batch_losslessly(self, batches, scheme_name):
        pool, sizes = experiments.store_batches(batches, scheme_name, budget_bytes=10**8)
        scheme = get_scheme(scheme_name)
        assert len(sizes) == len(batches)
        assert all(batch_id in pool for batch_id in range(len(batches)))
        for batch_id, (features, _labels) in enumerate(batches):
            payload = pool.read(batch_id)
            assert len(payload) == sizes[batch_id]
            np.testing.assert_array_equal(scheme.decompress_bytes(payload).to_dense(), features)

    @pytest.mark.parametrize(
        "scheme_name", [s for s in experiments.END_TO_END_SCHEMES if s != "DEN"]
    )
    def test_a_compressed_format_stores_less_than_dense(self, batches, scheme_name):
        _pool, sizes = experiments.store_batches(batches, scheme_name, budget_bytes=10**8)
        _pool, dense_sizes = experiments.store_batches(batches, "DEN", budget_bytes=10**8)
        assert sum(sizes) < sum(dense_sizes)

    @pytest.mark.parametrize("scheme_name", experiments.END_TO_END_SCHEMES)
    def test_trains_the_same_model_as_the_in_memory_loop(self, batches, scheme_name):
        n_features = batches[0][0].shape[1]
        pool, _sizes = experiments.store_batches(batches, scheme_name, budget_bytes=10**8)
        streamed = LogisticRegressionModel(n_features, seed=0)
        experiments.train_from_pool(streamed, pool, scheme_name, [y for _x, y in batches], 2, 0.5)

        in_memory = LogisticRegressionModel(n_features, seed=0)
        compressed = [(get_scheme(scheme_name).compress(bx), by) for bx, by in batches]
        config = GradientDescentConfig(epochs=2, learning_rate=0.5)
        MiniBatchGradientDescent(config).train(in_memory, compressed)
        np.testing.assert_array_equal(streamed.get_parameters(), in_memory.get_parameters())

    def test_training_through_the_pool_reduces_the_loss(self, batches):
        pool, _sizes = experiments.store_batches(batches, "TOC", budget_bytes=10**8)
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)

        def total_loss():
            return sum(model.loss(features, labels) for features, labels in batches)

        initial = total_loss()
        compute, _epoch_io = experiments.train_from_pool(
            model, pool, "TOC", [y for _x, y in batches], 4, 0.05
        )
        assert total_loss() < initial
        assert compute > 0

    def test_every_epoch_reads_every_batch_in_order_through_the_pool(self, batches, monkeypatch):
        pool, _sizes = experiments.store_batches(batches, "CSR", budget_bytes=10**8)
        read = pool.read
        keys: list[int] = []

        def spy(key):
            keys.append(key)
            return read(key)

        monkeypatch.setattr(pool, "read", spy)
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        experiments.train_from_pool(model, pool, "CSR", [y for _x, y in batches], 3, 0.1)
        assert keys == list(range(len(batches))) * 3
        assert pool.stats.accesses == 3 * len(batches)

    def test_zero_epochs_rejected(self, batches):
        pool, _sizes = experiments.store_batches(batches, "TOC", budget_bytes=10**8)
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        with pytest.raises(ValueError, match="epochs"):
            experiments.train_from_pool(model, pool, "TOC", [y for _x, y in batches], 0, 0.1)
        assert pool.stats.accesses == 0

    def test_a_pool_that_holds_every_batch_reads_the_disk_once(self, batches):
        pool, sizes = experiments.store_batches(batches, "TOC", budget_bytes=10**8)
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        _compute, epoch_io = experiments.train_from_pool(
            model, pool, "TOC", [y for _x, y in batches], 3, 0.1
        )
        assert epoch_io[0] == pytest.approx(sum(sizes) / experiments.SIMULATED_DISK_BANDWIDTH)
        assert epoch_io[1:] == [0.0, 0.0]
        assert pool.stats.misses == len(batches)
        assert pool.stats.hits == 2 * len(batches)

    def test_a_spilling_pool_pays_io_every_epoch(self, batches):
        toc_bytes = sum(get_scheme("TOC").compress(bx).nbytes for bx, _ in batches)
        pool, _sizes = experiments.store_batches(batches, "TOC", budget_bytes=toc_bytes // 3)
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        _compute, epoch_io = experiments.train_from_pool(
            model, pool, "TOC", [y for _x, y in batches], 3, 0.1
        )
        assert len(epoch_io) == 3
        assert all(io > 0 for io in epoch_io)

    @pytest.mark.parametrize("model_name", ["LR", "SVM"])
    def test_one_vs_rest_makes_one_pass_per_class_per_epoch(self, model_name):
        # A budget below one batch: every read misses, so the IO counts passes.
        classes, epochs = experiments.n_classes("mnist"), 2
        assert classes > 2
        cell = experiments.run_end_to_end(
            "mnist", "TOC", model_name, n_rows=200, memory_budget_bytes=1, epochs=epochs,
            batch_size=50,
        )
        one_pass = cell["stored_bytes"] / experiments.SIMULATED_DISK_BANDWIDTH
        assert cell["io_seconds"] == pytest.approx(classes * epochs * one_pass)
        assert not cell["fits_in_memory"]

    def test_a_multiclass_network_makes_one_pass_per_epoch(self):
        epochs = 2
        cell = experiments.run_end_to_end(
            "mnist", "TOC", "NN", n_rows=200, memory_budget_bytes=1, epochs=epochs,
            batch_size=50,
        )
        one_pass = cell["stored_bytes"] / experiments.SIMULATED_DISK_BANDWIDTH
        assert cell["io_seconds"] == pytest.approx(epochs * one_pass)

    def test_stored_bytes_and_fits_in_memory_come_from_the_payload_sum(self):
        features, labels = labeled_dataset("census", 300, seed=3)
        same = split_minibatches(features, labels, batch_size=50, seed=3)
        _pool, sizes = experiments.store_batches(same, "TOC", budget_bytes=10**8)
        for budget, fits in ((sum(sizes), True), (sum(sizes) - 1, False)):
            cell = experiments.run_end_to_end(
                "census", "TOC", "LR", n_rows=300, memory_budget_bytes=budget, epochs=1,
                batch_size=50, seed=3,
            )
            assert cell["stored_bytes"] == sum(sizes)
            assert cell["fits_in_memory"] is fits
            assert set(cell) == {
                "dataset", "scheme", "model", "rows", "compute_seconds", "io_seconds",
                "total_seconds", "wall_seconds", "fits_in_memory", "stored_bytes",
            }

    def test_epoch_io_is_the_bytes_the_epoch_read_over_the_modelled_bandwidth(self, batches):
        # Room for two batches: LRU misses every access of the cyclic epochs.
        pool, sizes = experiments.store_batches(batches, "CSR", budget_bytes=2 * max(
            len(get_scheme("CSR").compress(bx).to_bytes()) for bx, _ in batches
        ))
        model = LogisticRegressionModel(batches[0][0].shape[1], seed=0)
        _compute, epoch_io = experiments.train_from_pool(
            model, pool, "CSR", [y for _x, y in batches], 2, 0.1
        )
        assert pool.stats.hits == 0
        assert pool.stats.bytes_read_from_disk == 2 * sum(sizes)
        assert epoch_io == [sum(sizes) / experiments.SIMULATED_DISK_BANDWIDTH] * 2


class TestTable1Driver:
    def test_model_op_usage(self):
        usage = experiments.run_table1()
        assert usage["Logistic regression"] == ["matvec", "rmatvec"]
        assert usage["Support vector machine"] == ["matvec", "rmatvec"]
        assert usage["Neural network"] == ["matmat", "rmatmat"]


class TestCLI:
    def test_cli_runs_quick_fig5(self, capsys):
        assert experiments.main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "TOC" in out

    def test_cli_runs_quick_tab1(self, capsys):
        assert experiments.main(["tab1"]) == 0
        assert "Neural network" in capsys.readouterr().out

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            experiments.main(["fig99"])

    def test_every_experiment_has_quick_override_or_fast_default(self):
        # Guard rail: every registered experiment id resolves to a runner.
        for name, (runner, printer) in experiments.EXPERIMENTS.items():
            assert callable(runner) and callable(printer), name
