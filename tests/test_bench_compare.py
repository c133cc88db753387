"""Tests for ``bench/compare.py``, the repo's one regression verdict.

``python3 bench/run.py --compare A.json B.json`` holds result B against
result A with the bounds ``BENCHMARK.json`` declares, and answers
``within``, ``regressed`` or ``unresolved``.  ``bench/`` lies outside
``testpaths``; these tests load its ``compare`` module by file path and
drive ``run.py --compare`` in a subprocess (it runs no workload).
"""

from __future__ import annotations

import importlib.util
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load("compare")

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2]
NOISY = [40.0, 160.0, 50.0, 150.0, 100.0, 95.0]


def _metric(value: float, windows=STEADY) -> dict:
    return {"value": value, "windows": list(windows)}


def _result(scale: dict | None = None, *, windows=STEADY, traced=False, quick=False) -> dict:
    """A result holding every declared workload and end-to-end metric at 100,
    times ``scale[(workload, metric)]`` where given."""
    scale = scale or {}
    return {
        "provenance": {"quick": quick},
        "workloads": {
            workload: {
                "traced": traced,
                "metrics": {
                    name: _metric(100.0 * scale.get((workload, name), 1.0), windows)
                    for name in METRICS
                },
            }
            for workload in WORKLOADS
        },
    }


def _worse(workload: str, name: str, by: float) -> dict:
    """The scale that makes ``name`` on ``workload`` worse by ``by``."""
    factor = 1.0 - by if METRICS[name]["better"] == "higher" else 1.0 + by
    return {(workload, name): factor}


class TestSpread:
    @pytest.mark.parametrize("values", [[], [5.0], [5.0, 9.0], [5.0, 9.0, 1.0]])
    def test_fewer_than_four_values_have_no_spread(self, values):
        assert compare.spread(values) == 0.0

    def test_constant_windows_have_no_spread(self):
        assert compare.spread([7.0] * 6) == 0.0

    def test_is_the_quartile_distance_over_the_median(self):
        q1, _, q3 = statistics.quantiles(NOISY, n=4)
        assert compare.spread(NOISY) == pytest.approx((q3 - q1) / statistics.median(NOISY))

    def test_does_not_depend_on_the_unit(self):
        assert compare.spread([10 * v for v in NOISY]) == pytest.approx(compare.spread(NOISY))

    def test_a_negative_median_gives_a_positive_spread(self):
        assert compare.spread([-v for v in NOISY]) == pytest.approx(compare.spread(NOISY))


class TestResolution:
    def test_no_windows_resolve_everything(self):
        assert compare.resolution([]) == 0.0

    def test_is_the_spread_over_the_root_of_the_window_count(self):
        assert compare.resolution(NOISY) == pytest.approx(
            compare.spread(NOISY) / math.sqrt(len(NOISY))
        )

    def test_more_windows_of_the_same_spread_resolve_finer(self):
        assert compare.resolution(NOISY * 4) < compare.resolution(NOISY)


class TestWorsening:
    @pytest.mark.parametrize(
        "a,b,better,expected",
        [
            (100.0, 90.0, "higher", 0.10),
            (100.0, 110.0, "higher", -0.10),
            (100.0, 110.0, "lower", 0.10),
            (100.0, 90.0, "lower", -0.10),
            (-100.0, -110.0, "higher", 0.10),
        ],
    )
    def test_is_a_share_of_a_and_positive_when_b_is_worse(self, a, b, better, expected):
        assert compare.worsening(a, b, better) == pytest.approx(expected)


class TestVerdict:
    @pytest.mark.parametrize("better", ["higher", "lower"])
    def test_a_small_change_is_within(self, better):
        b = 97.0 if better == "higher" else 103.0
        kind, worse, _ = compare.verdict(_metric(100.0), _metric(b), better, 0.10)
        assert kind == "within"
        assert worse == pytest.approx(0.03)

    @pytest.mark.parametrize("better", ["higher", "lower"])
    def test_a_change_past_the_bound_is_regressed(self, better):
        b = 85.0 if better == "higher" else 115.0
        kind, worse, _ = compare.verdict(_metric(100.0), _metric(b), better, 0.10)
        assert kind == "regressed"
        assert worse == pytest.approx(0.15)

    @pytest.mark.parametrize("better", ["higher", "lower"])
    def test_a_change_to_the_bound_exactly_is_within(self, better):
        b = 75.0 if better == "higher" else 125.0
        assert compare.verdict(_metric(100.0), _metric(b), better, 0.25)[0] == "within"

    @pytest.mark.parametrize("better", ["higher", "lower"])
    def test_a_gain_is_within(self, better):
        b = 150.0 if better == "higher" else 50.0
        kind, worse, _ = compare.verdict(_metric(100.0), _metric(b), better, 0.10)
        assert kind == "within" and worse < 0

    def test_windows_wider_than_the_bound_are_unresolved(self):
        kind, _, wide = compare.verdict(_metric(100.0, NOISY), _metric(85.0), "higher", 0.10)
        assert kind == "unresolved"
        assert wide == pytest.approx(compare.resolution(NOISY)) and wide > 0.10

    def test_noise_in_b_alone_is_enough_to_be_unresolved(self):
        assert compare.verdict(_metric(100.0), _metric(85.0, NOISY), "higher", 0.10)[0] == (
            "unresolved"
        )

    def test_noisy_but_every_window_better_is_within(self):
        clear = _metric(200.0, [190.0, 200.0, 210.0, 205.0])
        assert compare.verdict(_metric(100.0, NOISY), clear, "higher", 0.10)[0] == "within"

    def test_noisy_but_every_window_lower_is_within_when_lower_is_better(self):
        clear = _metric(20.0, [18.0, 20.0, 22.0, 21.0])
        assert compare.verdict(_metric(100.0, NOISY), clear, "lower", 0.10)[0] == "within"

    def test_noisy_and_every_window_worse_is_still_only_unresolved(self):
        worse = _metric(20.0, [18.0, 20.0, 22.0, 21.0])
        assert compare.verdict(_metric(100.0, NOISY), worse, "higher", 0.10)[0] == "unresolved"

    def test_results_without_windows_compare_their_values(self):
        a, b = {"value": 100.0}, {"value": 80.0}
        kind, worse, wide = compare.verdict(a, b, "higher", 0.10)
        assert (kind, wide) == ("regressed", 0.0)
        assert worse == pytest.approx(0.20)

    def test_a_rerun_of_the_same_windows_is_never_regressed(self):
        """Two runs of one commit differ only in the order noise fell in."""
        rerun = list(reversed(NOISY))
        for value in (70.0, 100.0, 130.0):
            kind, _, _ = compare.verdict(_metric(100.0, NOISY), _metric(value, rerun), "higher", 0.25)
            assert kind != "regressed"


class TestLoadResult:
    def test_a_full_result_loads(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(_result()))
        assert compare.load_result(path) == _result()

    def test_a_result_without_provenance_loads(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"workloads": {}}))
        assert compare.load_result(path) == {"workloads": {}}

    def test_a_quick_result_is_refused(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(_result(quick=True)))
        with pytest.raises(ValueError, match="quick"):
            compare.load_result(path)


class TestCompare:
    def test_identical_results_are_within_on_every_row(self):
        rows, worst = compare.compare(SPEC, _result(), _result())
        assert worst == "within"
        assert len(rows) == len(WORKLOADS) * len(METRICS)
        assert {row["verdict"] for row in rows} == {"within"}

    def test_rows_follow_the_declared_order(self):
        rows, _ = compare.compare(SPEC, _result(), _result())
        assert [(r["workload"], r["metric"]) for r in rows] == [
            (w, m) for w in WORKLOADS for m in METRICS
        ]

    def test_a_row_carries_the_bound_and_unit_of_its_metric(self):
        rows, _ = compare.compare(SPEC, _result(), _result())
        for row in rows:
            assert row["bound"] == METRICS[row["metric"]]["bound"]
            assert row["unit"] == METRICS[row["metric"]]["unit"]

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_one_metric_past_its_bound_regresses_the_pair(self, name):
        workload = WORKLOADS[-1]
        worse = _result(_worse(workload, name, METRICS[name]["bound"] + 0.05))
        rows, worst = compare.compare(SPEC, _result(), worse)
        assert worst == "regressed"
        assert [(r["workload"], r["metric"]) for r in rows if r["verdict"] == "regressed"] == [
            (workload, name)
        ]

    def test_a_regression_outranks_an_unresolved_row(self):
        a = _result()
        a["workloads"][WORKLOADS[0]]["metrics"]["setup_s"]["windows"] = NOISY
        b = _result(_worse(WORKLOADS[1], "setup_s", 0.5))
        rows, worst = compare.compare(SPEC, a, b)
        assert {r["verdict"] for r in rows} == {"within", "unresolved", "regressed"}
        assert worst == "regressed"

    def test_noisy_runs_are_unresolved(self):
        rows, worst = compare.compare(SPEC, _result(windows=NOISY), _result(windows=NOISY))
        assert worst == "unresolved"
        assert {r["verdict"] for r in rows} == {"unresolved"}

    def test_traced_runs_are_not_compared(self):
        rows, worst = compare.compare(SPEC, _result(traced=True), _result(traced=True))
        assert (rows, worst) == ([], "unresolved")

    def test_a_workload_only_one_result_ran_is_skipped(self):
        b = _result()
        del b["workloads"][WORKLOADS[0]]
        rows, worst = compare.compare(SPEC, _result(), b)
        assert worst == "within"
        assert WORKLOADS[0] not in {r["workload"] for r in rows}

    def test_a_metric_only_one_result_holds_is_skipped(self):
        a = _result()
        for run in a["workloads"].values():
            del run["metrics"]["setup_s"]
        rows, _ = compare.compare(SPEC, a, _result())
        assert "setup_s" not in {r["metric"] for r in rows}
        assert len(rows) == len(WORKLOADS) * (len(METRICS) - 1)

    def test_results_with_nothing_in_common_are_unresolved(self):
        assert compare.compare(SPEC, _result(), {"workloads": {}}) == ([], "unresolved")


class TestRender:
    def test_one_line_per_row_under_a_header(self):
        rows, _ = compare.compare(SPEC, _result(), _result(_worse(WORKLOADS[0], "setup_s", 0.5)))
        lines = compare.render(rows).splitlines()
        assert lines[0].split() == ["metric", "workload", "A", "B", "worse", "by", "resolves",
                                    "bound", "verdict"]
        assert len(lines) == len(rows) + 1
        assert [line.split()[-1] for line in lines[1:]] == [r["verdict"] for r in rows]

    def test_shows_the_worsening_and_bound_as_percentages(self):
        rows, _ = compare.compare(SPEC, _result(), _result(_worse(WORKLOADS[0], "setup_s", 0.5)))
        line = compare.render(rows).splitlines()[1]
        assert line.split()[:2] == ["setup_s", WORKLOADS[0]]
        assert "+50.0%" in line and "25%" in line and line.endswith("regressed")


def test_each_verdict_has_its_own_exit_code():
    assert compare.EXIT_CODES == {"within": 0, "regressed": 1, "unresolved": 2}


class TestRunCompare:
    @staticmethod
    def _run(tmp_path, a: dict, b: dict) -> subprocess.CompletedProcess:
        paths = []
        for name, result in (("a.json", a), ("b.json", b)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(result))
        return subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--compare", *map(str, paths)],
            capture_output=True, text=True, timeout=60,
        )

    @pytest.mark.parametrize(
        "b,code,verdict",
        [
            (_result(), 0, "within"),
            (_result(_worse(WORKLOADS[0], "cluster_rps", 0.5)), 1, "regressed"),
            (_result(windows=NOISY), 2, "unresolved"),
        ],
        ids=["within", "regressed", "unresolved"],
    )
    def test_exits_with_the_code_of_the_worst_verdict(self, tmp_path, b, code, verdict):
        done = self._run(tmp_path, _result(), b)
        assert done.returncode == code, done.stdout + done.stderr
        assert done.stdout.strip().splitlines()[-1] == f"verdict: {verdict}"

    def test_refuses_a_quick_result(self, tmp_path):
        done = self._run(tmp_path, _result(), _result(quick=True))
        assert done.returncode == 3
        assert "quick" in done.stderr
