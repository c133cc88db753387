"""Smoke test of the benchmark itself: ``python -m pytest bench -q`` (outside tier-1).

Runs the whole suite in ``--quick`` mode, untraced and traced, and checks
that what it emits is exactly what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(BENCH_DIR))
import compare  # noqa: E402


def _run(*args: str, timeout: float = 170) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("section,flag", [("end_to_end", "--trace=0"), ("per_layer", "--trace=1")])
def test_quick_suite_emits_exactly_the_declared_metrics(tmp_path, section, flag):
    out = tmp_path / "result.json"
    done = _run("--quick", flag, "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    assert result["provenance"]["quick"] is True
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for workload, run in result["workloads"].items():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, run["failures"]
        assert set(run["metrics"]) == set(declared), workload
        for name, metric in run["metrics"].items():
            assert NAME.fullmatch(name) and NAME.fullmatch(workload)
            assert metric["unit"] == declared[name]
            assert math.isfinite(metric["value"]), (workload, name)
    # A quick result is a smoke test, not a measurement: --compare refuses it.
    refused = _run("--compare", str(out), str(out))
    assert refused.returncode == 3 and "quick" in refused.stderr


def test_one_workload_ends_with_the_driver_line(tmp_path):
    done = _run("--quick", "--workload", "serve_hot", "--seed", "5", "--out", str(tmp_path / "r.json"))
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2]
    a = {"value": 100.0, "windows": steady}
    assert compare.verdict(a, {"value": 97.0, "windows": steady}, "higher", 0.10)[0] == "within"
    assert compare.verdict(a, {"value": 85.0, "windows": steady}, "higher", 0.10)[0] == "regressed"
    assert compare.verdict(a, {"value": 115.0, "windows": steady}, "lower", 0.10)[0] == "regressed"
    noisy = {"value": 100.0, "windows": [40.0, 160.0, 50.0, 150.0, 100.0, 95.0]}
    assert compare.verdict(noisy, {"value": 85.0, "windows": steady}, "higher", 0.10)[0] == "unresolved"
    clear = {"value": 200.0, "windows": [190.0, 200.0, 210.0, 205.0]}
    assert compare.verdict(noisy, clear, "higher", 0.10)[0] == "within"
