"""Every name ``bench/*.py`` imports from ``repro`` exists.

The end-to-end benchmark under ``bench/`` lives outside ``testpaths``, so the
tier-1 suite never imports it: renaming or deleting a ``repro`` name it uses
would pass here and crash every ``bench/run.py`` run.  This test reads the
imports with ``ast`` (including the function-level ones) and resolves each
name the way ``from module import name`` does: an attribute of the module,
or else a submodule of it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_FILES = sorted(BENCH.glob("*.py"))


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``repro`` import in ``path``; ``name`` is
    ``None`` for a plain ``import repro.x``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None) for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
    return found


def _resolves(module_name: str, name: str | None) -> bool:
    module = importlib.import_module(module_name)
    if name is None or hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_the_benchmark_imports_from_repro():
    assert any(_repro_imports(path) for path in BENCH_FILES)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_every_repro_name_the_benchmark_imports_exists(path):
    missing = [
        f"from {module} import {name}" if name else f"import {module}"
        for module, name in _repro_imports(path)
        if not _resolves(module, name)
    ]
    assert not missing, f"{path.name} imports names repro no longer has: {missing}"


def test_a_missing_name_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def main():\n"
        "    from repro.obs import span, no_such_name\n"
        "from repro import exec as kernels\n"
    )
    imports = _repro_imports(probe)
    assert imports == [("repro", "exec"), ("repro.obs", "span"), ("repro.obs", "no_such_name")]
    assert [_resolves(*entry) for entry in imports] == [True, True, False]
