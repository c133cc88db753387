"""The benchmark: ``python bench/run.py [--workload NAME] [--seed N] [--traced] [--quick]``.

One command drives the public facade (``repro.api``) through the workloads
``BENCHMARK.json`` declares, prints every metric by name with its unit,
checks that what the system returned is correct, and writes one JSON
result.  With ``--workload`` the last line of standard output is the
result of that one run, for a driver to read; ``--compare A.json B.json``
holds two results against the bounds.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
#: A worker's Unix socket path must fit ``sun_path``; the cluster builds it under the temp dir.
MAX_SOCKET_DIR = 60


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only (default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="length of the timed phases of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: spans on, shorter phases, per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--quick", action="store_true", help="smoke run; not a measurement")
    parser.add_argument("--out", type=Path, help="where to write the JSON result")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def provenance(seed: int, quick: bool) -> dict:
    import numpy
    import scipy
    from repro.bench.runner import current_git_commit
    from repro.core.calibration import platform_fingerprint
    from repro.kernels import active_backend
    from repro.obs import platform_key

    from pipeline import CLIENTS, CLUSTER_WORKERS

    fingerprint = platform_fingerprint()
    return {
        "git_commit": current_git_commit(),
        "seed": seed,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "clients": CLIENTS,
        "cluster_workers": CLUSTER_WORKERS,
        "platform": fingerprint,
        "platform_key": platform_key(fingerprint),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernels_backend": active_backend(),
        "loadavg_1m_start": os.getloadavg()[0],
        "created_unix": time.time(),
    }


def _print_run(run: dict) -> None:
    kind = "per-layer (traced)" if run["traced"] else "end-to-end"
    print(f"== {run['workload']}  seed {run['seed']}  {kind}  "
          f"closed loop, {run['phases']['clients']} clients")
    for name, metric in run["metrics"].items():
        print(f"  {name:<50}{metric['value']:>16.6g} {metric['unit']}")
    reference = run["phases"].get("reference")
    if reference:
        print(f"  timings are at the reference speed; the box ran at {reference['speed']:.3f} of it "
              f"({len(reference['pass_s'])} reference passes)")
    print(f"  operations attempted {run['attempted']}, failed {run['failed']}; "
          f"samples {json.dumps(run['phases'].get('samples', {}))}")
    for failure in run["failures"]:
        print(f"  FAILED: {failure}")


def _driver_line(run: dict) -> str:
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in run["metrics"].items()}
    return json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def _keep_temp_files_inside() -> None:
    """Point ``tempfile`` at ``bench/out`` so nothing is written outside the checkout."""
    scratch = BENCH_DIR / "out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    if len(str(scratch)) <= MAX_SOCKET_DIR:
        tempfile.tempdir = str(scratch)
        os.environ["TMPDIR"] = str(scratch)  # worker processes inherit it


def _pin_to_one_cpu() -> None:
    """Keep the harness, and every thread and process started from here on, on one CPU.

    The box gives its CPUs a core's worth between them, and for seconds at
    a time two runnable threads on two of them wait on each other at twice
    the usual latency (measured: the same closed loop, windows alternating,
    p95 spread 0.52 across CPUs against 0.16 on one).  On one CPU a run
    measures what the program costs, not where the host put its threads.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _end_child_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    The cluster tier spawns its workers, and with the first of them the
    standard library starts a resource tracker that only ends once this
    process has gone; stop it here so that nothing outlives the run.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()  # closes its pipe, which ends it, and waits for it
    # Whatever is still a child on a failed path out: kill it, then reap all.
    me = os.getpid()
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
                if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
                    os.kill(int(entry), signal.SIGKILL)
            except (OSError, ValueError):
                pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _end_child_processes()


def _main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(REPO / "src"))
    spec = json.loads((REPO / "BENCHMARK.json").read_text())

    if args.compare:
        import compare

        try:
            a, b = (compare.load_result(path) for path in args.compare)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 3
        rows, worst = compare.compare(spec, a, b)
        print(compare.render(rows))
        print(f"verdict: {worst}")
        return compare.EXIT_CODES[worst]

    _pin_to_one_cpu()  # before NumPy starts its threads
    try:
        import suite
        from pipeline import Lengths
    except ImportError as exc:
        print(f"cannot import the system under test: {exc}", file=sys.stderr)
        return 2
    _keep_temp_files_inside()

    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            print(f"unknown workload {args.workload!r}; declared: {names}", file=sys.stderr)
            return 2
        names = [args.workload]
    seconds = args.seconds or spec["run_seconds"]
    if args.quick:
        lengths = Lengths(seconds=4.0, builds=1, window_s=1.0, warmup_s=0.1, rung_seconds=0.02,
                          rows=5000)
    else:
        lengths = Lengths(seconds=seconds)
    if args.trace:
        # The traced run repeats the workload at a quarter length, on one build.
        lengths = replace(lengths, seconds=lengths.seconds / 4, builds=1)

    run_one = suite.run_traced if args.trace else suite.run_workload
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"provenance": provenance(args.seed, args.quick), "workloads": {}}
    for name in names:
        run = run_one(name, args.seed, lengths, units)
        result["workloads"][name] = run
        _print_run(run)
    result["provenance"]["loadavg_1m_end"] = os.getloadavg()[0]

    out = args.out or BENCH_DIR / "out" / (
        f"result-{'traced' if args.trace else 'e2e'}-seed{args.seed}"
        f"{'-quick' if args.quick else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")
    correct = all(run["correct"] for run in result["workloads"].values())
    if args.workload is not None:
        print(_driver_line(result["workloads"][args.workload]))
    return 0 if correct else 1


if __name__ == "__main__":
    # The cluster tier spawns its workers, which import this module again.
    sys.exit(main())
