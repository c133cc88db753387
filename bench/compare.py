"""``run.py --compare A.json B.json``: B against A, metric by metric, workload by workload.

For every end-to-end metric a workload reports, B may be worse than A by
at most the bound ``BENCHMARK.json`` fixes.  A run's value is a total over
its windows, so what it can resolve is the windows' spread divided by the
root of their number.  Where that is wider than the bound, for either run,
the pair cannot show a change of that size, and the row says ``unresolved``
rather than ``within`` — unless every window of B reads better than every
window of A.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

WITHIN, REGRESSED, UNRESOLVED = "within", "regressed", "unresolved"
EXIT_CODES = {WITHIN: 0, REGRESSED: 1, UNRESOLVED: 2}


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median; 0 below four values."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def resolution(windows: list[float]) -> float:
    """The smallest relative change a total over ``windows`` can show."""
    return spread(windows) / math.sqrt(len(windows)) if windows else 0.0


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A; negative when B is better."""
    return (a - b) / abs(a) if better == "higher" else (b - a) / abs(a)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float, float]:
    worse = worsening(a["value"], b["value"], better)
    wide = max(resolution(a.get("windows", [])), resolution(b.get("windows", [])))
    if wide > bound:
        wa, wb = a["windows"], b["windows"]
        clear = min(wb) > max(wa) if better == "higher" else max(wb) < min(wa)
        return (WITHIN if clear else UNRESOLVED), worse, wide
    return (REGRESSED if worse > bound else WITHIN), worse, wide


def load_result(path: Path) -> dict:
    result = json.loads(Path(path).read_text())
    if result.get("provenance", {}).get("quick"):
        raise ValueError(f"{path} is a --quick result; quick runs are smoke tests, not measurements")
    return result


def compare(spec: dict, a: dict, b: dict) -> tuple[list[dict], str]:
    """One row per (metric, workload) both results hold, and the worst verdict."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [r["workloads"].get(workload) for r in (a, b)]
        if None in runs or any(run["traced"] for run in runs):
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma, mb = (run["metrics"].get(name) for run in runs)
            if ma is None or mb is None:
                continue
            kind, worse, wide = verdict(ma, mb, metric["better"], metric["bound"])
            rows.append({
                "metric": name, "workload": workload, "unit": metric["unit"],
                "a": ma["value"], "b": mb["value"], "worse_by": worse,
                "resolves": wide, "bound": metric["bound"], "verdict": kind,
            })
    verdicts = {row["verdict"] for row in rows}
    if REGRESSED in verdicts:
        return rows, REGRESSED
    # Two results with nothing in common resolve nothing.
    return rows, UNRESOLVED if UNRESOLVED in verdicts or not rows else WITHIN


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':<28}{'workload':<13}{'A':>14}{'B':>14}{'worse by':>10}"
             f"{'resolves':>9}{'bound':>7}  verdict"]
    for r in rows:
        lines.append(
            f"{r['metric']:<28}{r['workload']:<13}{r['a']:>14.6g}{r['b']:>14.6g}"
            f"{r['worse_by']:>+10.1%}{r['resolves']:>9.1%}{r['bound']:>7.0%}  {r['verdict']}"
        )
    return "\n".join(lines)
