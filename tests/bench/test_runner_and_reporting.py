"""Tests for the benchmark measurement and reporting helpers."""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_series, format_table
from repro.bench.runner import measure_compression, time_callable, time_matrix_ops
from repro.bench.workloads import labeled_dataset, minibatch_for, n_classes
from repro.compression.registry import get_scheme


class TestWorkloads:
    def test_minibatch_shape(self):
        batch = minibatch_for("census", 100)
        assert batch.shape == (100, 68)

    def test_labeled_dataset(self):
        features, labels = labeled_dataset("kdd99", 50)
        assert features.shape[0] == labels.shape[0] == 50

    def test_n_classes(self):
        assert n_classes("mnist") == 10
        assert n_classes("census") == 2


class TestRunner:
    def test_measure_compression_fields(self):
        batch = minibatch_for("census", 50)
        measurement = measure_compression("TOC", batch)
        assert measurement.scheme == "TOC"
        assert measurement.dense_bytes == 50 * 68 * 8
        assert measurement.compressed_bytes > 0
        assert measurement.ratio > 1.0
        assert measurement.ratio == measurement.dense_bytes / measurement.compressed_bytes

    def test_measure_compression_all_schemes(self):
        batch = minibatch_for("census", 50)
        for scheme in ("DEN", "CSR", "CVI", "DVI", "CLA", "Snappy", "Gzip", "TOC"):
            assert measure_compression(scheme, batch).compressed_bytes > 0

    def test_time_callable(self):
        calls = []
        elapsed = time_callable(lambda: calls.append(1), repeats=3)
        assert elapsed >= 0
        assert len(calls) == 4  # 1 warmup (untimed) + 3 timed samples

    def test_time_callable_warmup_count(self):
        calls = []
        time_callable(lambda: calls.append(1), repeats=2, warmup=3)
        assert len(calls) == 5

    def test_time_callable_no_warmup(self):
        calls = []
        time_callable(lambda: calls.append(1), repeats=1, warmup=0)
        assert len(calls) == 1

    def test_time_callable_excludes_warmup_from_samples(self):
        # A deliberately slow first call must not skew the median: with the
        # default warmup it is burned before sampling starts.
        state = {"first": True}

        def cold_then_hot():
            if state["first"]:
                state["first"] = False
                time.sleep(0.05)

        elapsed = time_callable(cold_then_hot, repeats=3)
        assert elapsed < 0.05

    def test_time_callable_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)

    def test_time_callable_rejects_negative_warmup(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, warmup=-1)

    def test_time_matrix_ops_keys(self):
        batch = minibatch_for("census", 50)
        compressed = get_scheme("TOC").compress(batch)
        timings = time_matrix_ops(compressed, batch.shape[1], batch.shape[0], repeats=1)
        assert set(timings) == {"A*c", "A*v", "A*M", "v*A", "M*A"}
        assert all(t >= 0 for t in timings.values())


class TestReporting:
    def test_format_table_contains_all_cells(self):
        rows = {"TOC": {"NN": 1.0, "LR": 2.0}, "DEN": {"NN": 3.0, "LR": 4.0}}
        text = format_table("Table", rows, ["NN", "LR"])
        assert "TOC" in text and "DEN" in text
        assert "1" in text and "4" in text

    def test_format_table_handles_missing_cells(self):
        rows = {"TOC": {"NN": 1.0}}
        text = format_table("Table", rows, ["NN", "LR"])
        assert "TOC" in text

    def test_format_series(self):
        text = format_series("Fig", "rows", [50, 100], {"TOC": [1.0, 2.0], "CSR": [0.5, 0.6]})
        assert "TOC" in text and "CSR" in text and "50" in text

    def test_format_table_is_aligned(self):
        rows = {"A": {"x": 1.0}, "BBBBBB": {"x": 2.0}}
        lines = format_table("T", rows, ["x"]).splitlines()
        data_lines = [line for line in lines if "|" in line]
        assert len({line.index("|") for line in data_lines}) == 1


class TestBenchJSON:
    def test_write_bench_json_round_trip(self, tmp_path):
        import json

        from repro.bench.runner import BENCH_JSON_VERSION, bench_json_path, write_bench_json

        records = [{"bench": "encode", "median_seconds": 0.5}, {"bench": "train", "loss": 1.0}]
        path = write_bench_json("unit", records, directory=tmp_path)
        assert path == bench_json_path("unit", tmp_path)
        assert path.name == "BENCH_unit.json"

        payload = json.loads(path.read_text())
        assert payload["version"] == BENCH_JSON_VERSION
        assert payload["records"] == records
        assert payload["platform"]["cpu_count"] >= 1
        assert "git_commit" in payload

    def test_a_crashed_rewrite_keeps_the_previous_snapshot(self, tmp_path, monkeypatch):
        import json

        from repro.bench.runner import write_bench_json
        from repro.storage import mmapio

        path = write_bench_json("unit", [{"run": 1}], directory=tmp_path)

        def crash(src, dst):
            raise OSError("crashed before the rename")

        monkeypatch.setattr(mmapio.os, "replace", crash)
        with pytest.raises(OSError, match="crashed"):
            write_bench_json("unit", [{"run": 2}], directory=tmp_path)
        monkeypatch.undo()
        assert json.loads(path.read_text())["records"] == [{"run": 1}]

    def test_git_commit_resolves_in_this_checkout(self):
        from repro.bench.runner import current_git_commit

        commit = current_git_commit()
        # The test suite runs from a git checkout, so the hash must resolve
        # (and parse as one); installed-wheel environments would get None.
        assert commit is not None
        assert len(commit) == 40
        assert all(c in "0123456789abcdef" for c in commit)

    def test_write_bench_json_accepts_dataclasses(self, tmp_path):
        import json

        from repro.bench.runner import write_bench_json

        measurement = measure_compression("CSR", minibatch_for("census", 32, seed=0))
        path = write_bench_json("dc", [measurement], directory=tmp_path)
        record = json.loads(path.read_text())["records"][0]
        assert record["scheme"] == "CSR"
        assert record["compressed_bytes"] > 0

    def test_bench_json_dir_env_controls_default(self, tmp_path, monkeypatch):
        from repro.bench.runner import BENCH_JSON_DIR_ENV, bench_json_path

        monkeypatch.setenv(BENCH_JSON_DIR_ENV, str(tmp_path / "out"))
        assert bench_json_path("x") == tmp_path / "out" / "BENCH_x.json"
