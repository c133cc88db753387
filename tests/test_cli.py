"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import build_parser, main
from repro.core.advisor import recommend_scheme
from repro.data.registry import DATASET_PROFILES


class TestInfoCommand:
    def test_lists_schemes_and_datasets(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "TOC" in out
        assert "census" in out
        assert "fig5" in out


class TestAdviseCommand:
    def test_prints_the_measured_cost_pick_for_training(self, capsys):
        assert main(["advise", "--dataset", "census", "--rows", "100"]) == 0
        out = capsys.readouterr().out
        assert "workload: 'train' (measured-cost ranking)" in out
        sample = DATASET_PROFILES["census"].matrix(100, seed=0)
        assert f"recommended scheme: {recommend_scheme(sample).best.name}" in out

    def test_unknown_dataset_fails_cleanly(self, capsys):
        assert main(["advise", "--dataset", "criteo"]) == 2
        assert "unknown dataset" in capsys.readouterr().out

    def test_all_schemes_listed(self, capsys):
        main(["advise", "--dataset", "kdd99", "--rows", "60"])
        out = capsys.readouterr().out
        for scheme in ("DEN", "CSR", "CVI", "DVI", "CLA", "Snappy", "Gzip", "TOC"):
            assert scheme in out


class TestExperimentCommand:
    def test_runs_quick_experiment(self, capsys):
        assert main(["experiment", "tab1"]) == 0
        assert "Neural network" in capsys.readouterr().out

    def test_quick_flag_passed_through(self, capsys):
        assert main(["experiment", "fig6", "--quick"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_advise_defaults(self):
        args = build_parser().parse_args(["advise"])
        assert args.dataset == "census"
        assert args.rows == 250

    def test_encode_defaults_to_auto_scheme(self):
        args = build_parser().parse_args(["encode", "--shard-dir", "x"])
        assert args.scheme == "auto"

    def test_train_ooc_defaults_to_toc(self):
        args = build_parser().parse_args(["train-ooc"])
        assert args.scheme == "TOC"

    def test_workload_defaults_to_train_everywhere(self):
        for argv in (["encode", "--shard-dir", "x"], ["train-ooc"],
                     ["compact", "--shard-dir", "x"], ["advise"]):
            assert build_parser().parse_args(argv).workload == "train"

    def test_workload_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["encode", "--shard-dir", "x", "--workload", "oltp"])

    def test_there_is_no_bench_report_command(self):
        # The regression verdict is ``bench/run.py --compare``.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-report"])

    def test_train_ooc_has_no_prefetch_depth_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train-ooc", "--prefetch-depth", "2"])

    @pytest.mark.parametrize(
        "argv",
        [["encode", "--shard-dir", "x"], ["train-ooc"], ["compact", "--shard-dir", "x"]],
    )
    def test_there_is_no_executor_option(self, capsys, argv):
        # ``--workers`` alone decides: 1 encodes in this process.
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--executor", "serial"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --executor serial" in err


class TestEncodeStatsCompactCommands:
    def test_round_trip_encode_stats_compact_train_predict(
        self, capsys, tmp_path, pin_calibration
    ):
        """The facade lifecycle end to end on one tmpdir.

        encode (deliberately mis-scheming sparse data as DEN) → stats →
        compact (drift repair: the advisor re-encodes every shard, to TOC
        under the calibration pinned next to them) →
        train-ooc over the *existing* compacted shards → predict.
        """
        import json

        shard_dir, registry_dir = tmp_path / "shards", tmp_path / "registry"
        assert main(
            [
                "encode",
                "--dataset", "census",
                "--rows", "300",
                "--batch-size", "75",
                "--scheme", "DEN",
                "--workers", "1",
                "--shard-dir", str(shard_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "DENx4" in out

        assert main(["stats", "--shard-dir", str(shard_dir)]) == 0
        assert "DENx4" in capsys.readouterr().out
        pin_calibration(shard_dir, {"TOC": 1e-9})

        assert main(["compact", "--shard-dir", str(shard_dir)]) == 0
        out = capsys.readouterr().out
        assert "4 of 4 shards re-encoded" in out
        manifest = json.loads((shard_dir / "manifest.json").read_text())
        assert manifest["format_version"] == 3
        assert all(row["scheme"] != "DEN" for row in manifest["shards"])

        # Second compact: idempotent no-op.
        assert main(["compact", "--shard-dir", str(shard_dir)]) == 0
        assert "0 of 4 shards re-encoded" in capsys.readouterr().out

        # train-ooc reuses the compacted directory instead of re-sharding.
        assert main(
            [
                "train-ooc",
                "--epochs", "2",
                "--shard-dir", str(shard_dir),
                "--checkpoint-dir", str(registry_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "training over the existing 4 shards" in out
        assert "checkpoint: published v00001" in out

        assert main(["predict", "--checkpoint-dir", str(registry_dir), "--ids", "0,299"]) == 0
        assert "agreement with stored labels" in capsys.readouterr().out

    def test_encode_unknown_dataset_fails_cleanly(self, capsys, tmp_path):
        assert main(["encode", "--dataset", "criteo", "--shard-dir", str(tmp_path)]) == 2
        assert "unknown dataset" in capsys.readouterr().out

    def test_encode_unknown_scheme_fails_cleanly(self, capsys, tmp_path):
        assert main(
            ["encode", "--scheme", "LZ77", "--rows", "100", "--shard-dir", str(tmp_path)]
        ) == 2
        assert "encode failed" in capsys.readouterr().out

    def test_stats_missing_directory_fails_cleanly(self, capsys, tmp_path):
        assert main(["stats", "--shard-dir", str(tmp_path / "none")]) == 2
        assert "no shard manifest" in capsys.readouterr().out

    def test_compact_missing_directory_fails_cleanly(self, capsys, tmp_path):
        assert main(["compact", "--shard-dir", str(tmp_path / "none")]) == 2
        assert "no shard manifest" in capsys.readouterr().out

    def test_compact_no_readvise_rewrites_manifest_only(self, capsys, tmp_path):
        assert main(
            [
                "encode",
                "--dataset", "census",
                "--rows", "150",
                "--batch-size", "75",
                "--scheme", "DEN",
                "--workers", "1",
                "--shard-dir", str(tmp_path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["compact", "--shard-dir", str(tmp_path), "--no-readvise"]) == 0
        assert "manifest rewritten" in capsys.readouterr().out

    def test_workload_flag_encodes_compacts_and_advises(self, capsys, tmp_path):
        assert main(
            [
                "encode",
                "--dataset", "census",
                "--rows", "150",
                "--batch-size", "75",
                "--workers", "1",
                "--workload", "serve",
                "--shard-dir", str(tmp_path),
            ]
        ) == 0
        assert "encoded" in capsys.readouterr().out
        assert (tmp_path / "calibration.json").exists()

        assert main(["compact", "--shard-dir", str(tmp_path), "--workload", "serve"]) == 0
        assert "compacted" in capsys.readouterr().out

        assert main(["advise", "--dataset", "census", "--rows", "100",
                     "--workload", "serve"]) == 0
        out = capsys.readouterr().out
        assert "measured-cost ranking" in out
        assert "recommended scheme:" in out


class TestTrainOOCCommand:
    def test_trains_out_of_core_and_reports_spill(self, capsys, tmp_path):
        assert (
            main(
                [
                    "train-ooc",
                    "--dataset", "census",
                    "--rows", "400",
                    "--batch-size", "100",
                    "--epochs", "2",
                    "--workers", "1",
                    "--shard-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "does NOT fit" in out  # default budget ratio 0.5: dataset > pool
        assert "pool stats:" in out
        assert (tmp_path / "manifest.json").exists()

    def test_reports_the_bytes_read_and_no_modelled_disk(self, capsys, tmp_path):
        argv = ["--dataset", "census", "--rows", "400", "--batch-size", "100",
                "--workers", "1", "--shard-dir", str(tmp_path)]
        assert main(["train-ooc", "--epochs", "2", *argv]) == 0
        out = capsys.readouterr().out
        assert "MB read from disk" in out
        assert "wall s" in out
        assert "sim IO" not in out and "paged" not in out
        assert main(["stats", "--shard-dir", str(tmp_path)]) == 0
        assert "paged" not in capsys.readouterr().out

    def test_unknown_dataset_fails_cleanly(self, capsys):
        assert main(["train-ooc", "--dataset", "criteo"]) == 2
        assert "unknown dataset" in capsys.readouterr().out

    def test_auto_scheme_trains_checkpoints_and_serves(self, capsys, tmp_path):
        import json

        shard_dir, registry_dir = tmp_path / "shards", tmp_path / "registry"
        code = main(
            [
                "train-ooc",
                "--dataset", "census",
                "--rows", "300",
                "--batch-size", "75",
                "--epochs", "1",
                "--scheme", "auto",
                "--workers", "1",
                "--shard-dir", str(shard_dir),
                "--checkpoint-dir", str(registry_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheme 'auto'" in out
        manifest = json.loads((shard_dir / "manifest.json").read_text())
        assert manifest["requested_scheme"] == "auto"
        assert all(row["scheme"] != "auto" for row in manifest["shards"])

        # The checkpointed model serves rows straight off the auto shards.
        assert main(["predict", "--checkpoint-dir", str(registry_dir), "--ids", "0,5,299"]) == 0
        assert "agreement with stored labels" in capsys.readouterr().out

    def test_unknown_scheme_fails_cleanly(self, capsys):
        assert main(["train-ooc", "--scheme", "LZ77", "--rows", "200"]) == 2
        assert "invalid train-ooc configuration" in capsys.readouterr().out

    def test_checkpoint_requires_shard_dir(self, capsys, tmp_path):
        assert main(["train-ooc", "--checkpoint-dir", str(tmp_path)]) == 2
        assert "--shard-dir" in capsys.readouterr().out


@pytest.fixture(scope="module")
def served_checkpoint(tmp_path_factory):
    """One train-ooc run with --checkpoint-dir, shared by the serving tests."""
    shard_dir = tmp_path_factory.mktemp("cli-shards")
    registry_dir = tmp_path_factory.mktemp("cli-registry")
    code = main(
        [
            "train-ooc",
            "--dataset", "census",
            "--rows", "300",
            "--batch-size", "75",
            "--epochs", "2",
            "--workers", "1",
            "--shard-dir", str(shard_dir),
            "--checkpoint-dir", str(registry_dir),
        ]
    )
    assert code == 0
    return shard_dir, registry_dir


class TestPredictCommand:
    def test_predicts_stored_rows(self, capsys, served_checkpoint):
        _, registry_dir = served_checkpoint
        capsys.readouterr()
        assert main(["predict", "--checkpoint-dir", str(registry_dir), "--ids", "0,5,299"]) == 0
        out = capsys.readouterr().out
        assert "model v00001" in out
        assert "agreement with stored labels" in out

    def test_shards_override(self, capsys, served_checkpoint):
        shard_dir, registry_dir = served_checkpoint
        code = main(
            [
                "predict",
                "--checkpoint-dir", str(registry_dir),
                "--shards", str(shard_dir),
                "--ids", "1",
            ]
        )
        assert code == 0

    def test_missing_checkpoint_fails_cleanly(self, capsys, tmp_path):
        assert main(["predict", "--checkpoint-dir", str(tmp_path / "none")]) == 2
        assert "cannot load checkpoint" in capsys.readouterr().out

    def test_bad_ids_rejected(self, capsys, served_checkpoint):
        _, registry_dir = served_checkpoint
        assert main(["predict", "--checkpoint-dir", str(registry_dir), "--ids", "a,b"]) == 2
        assert "comma-separated integers" in capsys.readouterr().out

    def test_out_of_range_id_fails_cleanly(self, capsys, served_checkpoint):
        _, registry_dir = served_checkpoint
        assert main(["predict", "--checkpoint-dir", str(registry_dir), "--ids", "0,9999"]) == 2
        assert "predict failed: row 9999 out of range [0, 300)" in capsys.readouterr().out


class TestServeCommand:
    def test_reports_throughput_and_batching(self, capsys, served_checkpoint):
        _, registry_dir = served_checkpoint
        code = main(
            [
                "serve",
                "--checkpoint-dir", str(registry_dir),
                "--requests", "200",
                "--clients", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput:" in out
        assert "batching:" in out
        assert "pred cache:" in out

    def test_missing_checkpoint_fails_cleanly(self, capsys, tmp_path):
        assert main(["serve", "--checkpoint-dir", str(tmp_path / "none")]) == 2
        assert "cannot load checkpoint" in capsys.readouterr().out


class TestServeClusterCommand:
    def test_multiprocess_serve_reports_per_worker_metrics(
        self, capsys, served_checkpoint
    ):
        _, registry_dir = served_checkpoint
        code = main(
            [
                "serve",
                "--checkpoint-dir", str(registry_dir),
                "--workers", "2",
                "--backlog", "16",
                "--requests", "300",
                "--clients", "4",
                "--deadline-ms", "10000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        assert "answered requests/s" in out
        assert "cluster.worker.queue_depth{worker=0}" in out
        assert "cluster.worker.queue_depth{worker=1}" in out

    def test_worker_start_failure_exits_2_naming_the_cause(
        self, capsys, served_checkpoint, tmp_path
    ):
        _, registry_dir = served_checkpoint
        code = main(
            [
                "serve",
                "--checkpoint-dir", str(registry_dir),
                "--workers", "2",
                "--shards", str(tmp_path / "missing"),
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "cannot start the cluster: worker 0 failed to start: FileNotFoundError" in out

    def test_sigterm_drains_gracefully(self, capsys, served_checkpoint):
        import os
        import signal
        import threading
        import time

        from repro.obs import metrics as obs_metrics

        _, registry_dir = served_checkpoint

        def requests_total() -> float:
            snap = obs_metrics.snapshot("cluster.server.")
            return sum(
                value
                for key, value in snap["counters"].items()
                if key.startswith("cluster.server.requests")
            )

        base = requests_total()

        def send_sigterm() -> None:
            # Wait until the serve loop is demonstrably issuing requests —
            # by then the CLI's signal handlers are installed — then signal.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if requests_total() >= base + 20:
                    break
                time.sleep(0.02)
            os.kill(os.getpid(), signal.SIGTERM)

        killer = threading.Thread(target=send_sigterm)
        killer.start()
        try:
            code = main(
                [
                    "serve",
                    "--checkpoint-dir", str(registry_dir),
                    "--workers", "2",
                    "--backlog", "16",
                    "--requests", "500000",
                    "--clients", "4",
                ]
            )
        finally:
            killer.join(timeout=130)
        assert code == 0
        out = capsys.readouterr().out
        assert "received SIGTERM: draining in-flight work" in out
        assert "drained cleanly after signal" in out


class TestScanCommand:
    @pytest.fixture()
    def encoded_dir(self, capsys, tmp_path):
        shard_dir = tmp_path / "shards"
        assert main(
            [
                "encode",
                "--dataset", "census",
                "--rows", "200",
                "--batch-size", "50",
                "--workers", "1",
                "--shard-dir", str(shard_dir),
            ]
        ) == 0
        capsys.readouterr()
        return shard_dir

    def test_aggregate_round_trip(self, capsys, encoded_dir):
        assert main(["scan", "--shard-dir", str(encoded_dir), "--agg", "count"]) == 0
        out = capsys.readouterr().out
        assert "count" in out
        assert "200" in out
        assert "scanned 200 rows in 4 shards" in out

    def test_selection_prints_rows_and_stats(self, capsys, encoded_dir):
        assert main(
            [
                "scan",
                "--shard-dir", str(encoded_dir),
                "--where", "c0 >= 0",
                "--columns", "c1,c0",
                "--limit", "6",
                "--max-print", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "row" in out and "c1" in out
        assert "(3 more rows not printed)" in out
        assert "6 matched" in out
        assert "push-down on" in out

    def test_no_pushdown_flag_matches(self, capsys, encoded_dir):
        assert main(
            ["scan", "--shard-dir", str(encoded_dir), "--agg", "count,mean:c0"]
        ) == 0
        pushed = capsys.readouterr().out
        assert main(
            [
                "scan",
                "--shard-dir", str(encoded_dir),
                "--agg", "count,mean:c0",
                "--no-pushdown",
            ]
        ) == 0
        fallback = capsys.readouterr().out
        assert pushed.splitlines()[:2] == fallback.splitlines()[:2]

    def test_missing_directory_fails_cleanly(self, capsys, tmp_path):
        assert main(["scan", "--shard-dir", str(tmp_path / "nope")]) == 2
        assert "no shard manifest" in capsys.readouterr().out

    def test_bad_where_and_columns_fail_cleanly(self, capsys, encoded_dir):
        assert main(
            ["scan", "--shard-dir", str(encoded_dir), "--where", "c0 >"]
        ) == 2
        assert "scan failed" in capsys.readouterr().out
        assert main(
            ["scan", "--shard-dir", str(encoded_dir), "--columns", "c0,banana"]
        ) == 2
        assert "comma-separated" in capsys.readouterr().out


class TestFsckCommand:
    def _encode(self, capsys, tmp_path):
        shard_dir = tmp_path / "shards"
        assert main(
            [
                "encode",
                "--dataset", "census",
                "--rows", "120",
                "--batch-size", "60",
                "--workers", "1",
                "--shard-dir", str(shard_dir),
            ]
        ) == 0
        capsys.readouterr()
        return shard_dir

    def test_clean_directory(self, capsys, tmp_path):
        shard_dir = self._encode(capsys, tmp_path)
        assert main(["fsck", "--shard-dir", str(shard_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_orphan_dry_run_then_sweep(self, capsys, tmp_path):
        shard_dir = self._encode(capsys, tmp_path)
        orphan = shard_dir / "shard-00000.g7.bin"
        orphan.write_bytes(b"leftover from an interrupted compact")

        assert main(["fsck", "--shard-dir", str(shard_dir), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove: shard-00000.g7.bin" in out
        assert "dry run" in out
        assert orphan.exists()

        assert main(["fsck", "--shard-dir", str(shard_dir)]) == 0
        out = capsys.readouterr().out
        assert "removed: shard-00000.g7.bin" in out
        assert not orphan.exists()

        assert main(["fsck", "--shard-dir", str(shard_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_referenced_shard_exits_nonzero(self, capsys, tmp_path):
        import json

        shard_dir = self._encode(capsys, tmp_path)
        manifest = json.loads((shard_dir / "manifest.json").read_text())
        victim = manifest["shards"][0]["filename"]
        (shard_dir / victim).unlink()
        assert main(["fsck", "--shard-dir", str(shard_dir)]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_wrong_sized_referenced_shard_exits_nonzero(self, capsys, tmp_path):
        shard_dir = self._encode(capsys, tmp_path)
        victim = shard_dir / "shard-00000.bin"
        victim.write_bytes(victim.read_bytes() + bytes(8))
        assert main(["fsck", "--shard-dir", str(shard_dir)]) == 1
        out = capsys.readouterr().out
        assert "WRONG SIZE (not the manifest's nbytes + label_nbytes): shard-00000.bin" in out

    def test_corrupt_referenced_shard_exits_nonzero(self, capsys, tmp_path):
        shard_dir = self._encode(capsys, tmp_path)
        victim = shard_dir / "shard-00001.bin"
        flipped = bytearray(victim.read_bytes())
        flipped[40] ^= 0x01
        victim.write_bytes(flipped)
        assert main(["fsck", "--shard-dir", str(shard_dir)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT (CRC-32 is not the manifest's): shard-00001.bin" in out
        assert "1 CORRUPT" in out

    def test_missing_directory_fails_cleanly(self, capsys, tmp_path):
        assert main(["fsck", "--shard-dir", str(tmp_path / "nope")]) == 2
        assert "no shard manifest" in capsys.readouterr().out


class TestObsCommand:
    def test_metrics_prints_the_snapshot(self, capsys):
        assert main(["obs", "metrics", "--rows", "60", "--prefix", "engine."]) == 0
        out = capsys.readouterr().out
        snapshot = __import__("json").loads(out)
        assert snapshot["counters"]["engine.train.epochs"] >= 2
        assert "engine.encode.batch_seconds" in snapshot["histograms"]

    def test_metrics_show_the_async_legs_requests_in_the_serve_series(self, capsys):
        assert main(["obs", "metrics", "--rows", "60", "--prefix", "serve."]) == 0
        counters = __import__("json").loads(capsys.readouterr().out)["counters"]
        svc = max(
            int(key[len("serve.requests{svc="):-1])
            for key in counters
            if key.startswith("serve.requests{svc=")
        )
        # The async leg's service is the newest one in the process.
        assert counters[f"serve.requests{{svc={svc}}}"] == 16
        for reason in ("deadline", "overloaded"):
            assert counters[f"serve.shed{{reason={reason},svc={svc}}}"] == 0

    def test_dump_json_to_stdout(self, capsys):
        assert main(["obs", "dump", "--rows", "60"]) == 0
        spans = __import__("json").loads(capsys.readouterr().out)
        assert any(record["name"] == "engine.train" for record in spans)

    def test_dump_chrome_to_file(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        assert main([
            "obs", "dump", "--rows", "60", "--format", "chrome",
            "--output", str(out_path),
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        events = payload["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)

    def test_dump_to_file_replaces_a_previous_dump_whole(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.storage import mmapio

        out_path = tmp_path / "trace.json"
        out_path.write_text('{"old": true}')

        def crash(src, dst):
            raise OSError("crashed before the rename")

        monkeypatch.setattr(mmapio.os, "replace", crash)
        with pytest.raises(OSError, match="crashed"):
            main(["obs", "dump", "--rows", "60", "--output", str(out_path)])
        monkeypatch.undo()
        assert json.loads(out_path.read_text()) == {"old": True}

        assert main(["obs", "dump", "--rows", "60", "--output", str(out_path)]) == 0
        capsys.readouterr()
        assert any(record["name"] == "engine.train" for record in json.loads(out_path.read_text()))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["obs", "dump"])
        assert args.format == "json"
        assert args.rows == 400
