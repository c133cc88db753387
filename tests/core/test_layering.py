"""``repro.core`` does not import the benchmark harness.

The calibration the advisor ranks by is part of the core; it used to borrow
its timers and the commit stamp from ``repro.bench.runner``, which tied the
core to the harness (and the harness back to the core).  This test reads
every import under ``src/repro/core`` with ``ast``, function-level ones too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

CORE = Path(repro.__file__).resolve().parent / "core"


def _bench_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.extend(name for name in names if name.split(".")[:2] == ["repro", "bench"])
    return found


def test_no_core_module_imports_repro_bench():
    paths = sorted(CORE.glob("*.py"))
    assert paths
    offenders = {path.name: imports for path in paths if (imports := _bench_imports(path))}
    assert not offenders, f"core modules importing repro.bench: {offenders}"


def test_a_bench_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.bench.runner import time_callable\n"
        "def f():\n"
        "    from repro import bench\n"
        "import repro.benchmarks_elsewhere\n"
    )
    assert sorted(set(_bench_imports(probe))) == [
        "repro.bench", "repro.bench.runner", "repro.bench.runner.time_callable"
    ]
