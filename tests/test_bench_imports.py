"""Every ``repro`` name that ``bench/``, ``benchmarks/`` and ``examples/`` import exists.

The end-to-end benchmark under ``bench/``, the paper-figure benchmarks under
``benchmarks/`` and the scripts under ``examples/`` live outside
``testpaths``, so the tier-1 suite never imports them: renaming or deleting a
``repro`` name they use would pass here and crash every ``bench/run.py`` run,
or a CI job that runs them.  This test reads the
imports with ``ast`` (including the function-level ones) and resolves each
name the way ``from module import name`` does: an attribute of the module,
or else a submodule of it.  Where an import binds a module
(``from repro import exec as kernels``), every attribute the file reads off
that name (``kernels.matvec``) must exist on the module too.  And every
attribute the file reads off a scheme ``get_scheme`` returns
(``scheme.decompress_bytes``), or off what that scheme's ``compress``
returns (``scheme.compress(batch).to_bytes``), must exist on every
registered scheme class.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

from repro.compression.registry import available_schemes, get_scheme

REPO = Path(__file__).resolve().parents[1]


def _script_files(root: Path) -> list[Path]:
    """Every ``*.py`` directly under ``bench/``, ``benchmarks/`` and ``examples/``."""
    return sorted(
        path for directory in ("bench", "benchmarks", "examples")
        for path in (root / directory).glob("*.py")
    )


SCRIPT_FILES = _script_files(REPO)


def _file_id(path: Path) -> str:
    return str(path.relative_to(REPO))


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


def _bound_module(module_name: str, name: str | None) -> types.ModuleType | None:
    """The module an import binds, or ``None`` when it binds something else."""
    module = importlib.import_module(module_name)
    if name is None:
        return module
    bound = getattr(module, name, None)
    if bound is None and _resolves(module_name, name):
        bound = importlib.import_module(f"{module_name}.{name}")
    return bound if isinstance(bound, types.ModuleType) else None


def _module_attribute_uses(path: Path) -> list[tuple[str, str]]:
    """``(module, attribute)`` for each ``alias.attribute`` read in ``path``
    where ``alias`` is a ``repro`` module the file imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    module = _bound_module(node.module, alias.name)
                    if module is not None:
                        aliases[alias.asname or alias.name] = module.__name__
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro" and alias.asname:
                    aliases[alias.asname] = alias.name
    return [
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    ]


def _is_get_scheme_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "get_scheme") or (
        isinstance(func, ast.Attribute) and func.attr == "get_scheme"
    )


def _scheme_attribute_uses(path: Path) -> set[str]:
    """Attributes ``path`` reads off a ``get_scheme(...)`` result (directly or
    through a name assigned from one) and off what its ``compress(...)`` returns."""
    tree = ast.parse(path.read_text(), filename=str(path))
    schemes = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_get_scheme_call(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def is_scheme(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id in schemes) or _is_get_scheme_call(node)

    uses = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        compressed = (
            isinstance(owner, ast.Call)
            and isinstance(owner.func, ast.Attribute)
            and owner.func.attr == "compress"
            and is_scheme(owner.func.value)
        )
        if is_scheme(owner) or compressed:
            uses.add(node.attr)
    return uses


def _missing_on_schemes(uses: set[str]) -> list[str]:
    return [
        f"{name}.{attribute}"
        for name in available_schemes(include_ablations=True)
        for attribute in sorted(uses)
        if not hasattr(get_scheme(name), attribute)
    ]


def test_the_benchmark_imports_from_repro():
    assert any(_repro_imports(path) for path in SCRIPT_FILES)


@pytest.mark.parametrize("path", SCRIPT_FILES, ids=_file_id)
def test_every_repro_name_the_benchmark_imports_exists(path):
    missing = [
        f"from {module} import {name}" if name else f"import {module}"
        for module, name in _repro_imports(path)
        if not _resolves(module, name)
    ]
    assert not missing, f"{_file_id(path)} imports names repro no longer has: {missing}"


@pytest.mark.parametrize("path", SCRIPT_FILES, ids=_file_id)
def test_every_repro_module_attribute_the_benchmark_reads_exists(path):
    missing = [
        f"{module}.{attribute}"
        for module, attribute in _module_attribute_uses(path)
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert not missing, f"{_file_id(path)} reads names repro no longer has: {missing}"


def test_the_benchmark_reads_attributes_off_repro_modules():
    assert any(_module_attribute_uses(path) for path in SCRIPT_FILES)


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


def test_a_missing_name_in_a_benchmarks_file_is_caught(tmp_path):
    probe = tmp_path / "benchmarks" / "bench_probe.py"
    probe.parent.mkdir()
    probe.write_text(
        "import pytest\n"
        "from repro.bench.experiments import run_fig5\n"
        "@pytest.mark.benchmark(group='probe')\n"
        "def test_probe(benchmark):\n"
        "    from repro.data.registry import generate_dataset\n"
        "    benchmark(run_fig5)\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_ignored.py").write_text("from repro import no_such_name\n")
    assert _script_files(tmp_path) == [probe]
    imports = _repro_imports(probe)
    assert imports == [
        ("repro.bench.experiments", "run_fig5"), ("repro.data.registry", "generate_dataset")
    ]
    assert [_resolves(*entry) for entry in imports] == [True, False]


def test_a_missing_module_attribute_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro import exec as kernels\n"
        "import repro.obs as observe\n"
        "from repro.api import Dataset\n"
        "kernels.matvec, observe.span, Dataset.open, kernels.no_such_kernel\n"
    )
    uses = _module_attribute_uses(probe)
    assert sorted(uses) == [
        ("repro.exec", "matvec"), ("repro.exec", "no_such_kernel"), ("repro.obs", "span")
    ]
    assert [hasattr(importlib.import_module(m), a) for m, a in sorted(uses)] == [
        True, False, True
    ]


@pytest.mark.parametrize("path", SCRIPT_FILES, ids=_file_id)
def test_every_scheme_method_the_benchmark_calls_exists(path):
    missing = _missing_on_schemes(_scheme_attribute_uses(path))
    assert not missing, f"{_file_id(path)} calls scheme methods repro no longer has: {missing}"


def test_the_benchmark_calls_the_scheme_api():
    uses = set().union(*(_scheme_attribute_uses(path) for path in SCRIPT_FILES))
    assert {"compress", "decompress_bytes", "to_bytes"} <= uses


def test_a_missing_scheme_method_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.api import get_scheme\n"
        "scheme = get_scheme('TOC')\n"
        "scheme.from_bytes(scheme.compress(batch).to_raw())\n"
        "get_scheme('CSR').decompress_bytes(raw)\n"
        "other.compress(batch).not_a_scheme_read\n"
    )
    uses = _scheme_attribute_uses(probe)
    assert uses == {"compress", "decompress_bytes", "from_bytes", "to_raw"}
    assert _missing_on_schemes(uses) == [
        f"{name}.{attribute}"
        for name in available_schemes(include_ablations=True)
        for attribute in ("from_bytes", "to_raw")
    ]
