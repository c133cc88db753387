"""Every public top-level name in ``src/`` is reached by code that is not a test.

A function, class or module-level assignment under ``src/`` whose name does
not start with ``_`` must be referenced from ``src/``, ``bench/``,
``benchmarks/`` or ``examples/``: by a ``Name`` or an ``Attribute`` that
reads it, by a ``from … import`` of it, or by an entry point in
``pyproject.toml`` or ``setup.py``.  Its own module counts.  What does not
count: anything under ``tests/``, an ``__init__.py`` re-export, an
``__all__`` string, a docstring or a comment — a name that only those mention
is code no workload runs, so it is either wired in or deleted.  Names are
matched by spelling, as the AST gives them; there is no allowlist.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: Directories whose code reaches ``src/``: the package itself, the
#: benchmark, the paper-figure benchmarks and the examples.
REACHING_DIRS = ("src", "bench", "benchmarks", "examples")

#: ``name = module:attr`` (a quoted TOML value or a ``setup()`` string).
_ENTRY_POINT = re.compile(r"""^\s*["']?[\w.-]+["']?\s*=\s*["']?([\w.]+)\s*:\s*([\w.]+)""")


def public_definitions(path: Path) -> list[tuple[str, int]]:
    """``(name, line)`` of each public top-level function, class and assignment."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(
                (name.id, node.lineno)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    return [(name, line) for name, line in found if not name.startswith("_")]


def references(path: Path) -> set[str]:
    """Every name ``path`` reads or imports; an ``__init__.py``'s imports are
    re-exports and do not count."""
    reexports = path.name == "__init__.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexports:
            found.update(alias.name for alias in node.names)
    return found


def entry_point_names(root: Path) -> set[str]:
    """The objects the ``pyproject.toml`` scripts and ``setup.py`` entry points name."""
    lines: list[str] = []
    pyproject = root / "pyproject.toml"
    if pyproject.exists():
        section = ""
        for line in pyproject.read_text().splitlines():
            if line.startswith("["):
                section = line.strip("[] \t")
            elif section.startswith(("project.scripts", "project.gui-scripts",
                                     "project.entry-points")):
                lines.append(line)
    setup = root / "setup.py"
    if setup.exists():
        lines.extend(
            node.value
            for node in ast.walk(ast.parse(setup.read_text(), filename=str(setup)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    return {
        part
        for line in lines
        if (match := _ENTRY_POINT.match(line))
        for part in match.group(2).split(".")
    }


def unreached(root: Path) -> list[str]:
    """``path:line name`` for each public name under ``root/src`` nothing reaches."""
    reached = entry_point_names(root)
    for directory in REACHING_DIRS:
        for path in (root / directory).rglob("*.py"):
            reached |= references(path)
    src = root / "src"
    return [
        f"{path.relative_to(src)}:{line} {name}"
        for path in sorted(src.rglob("*.py"))
        for name, line in public_definitions(path)
        if name not in reached
    ]


def test_every_public_name_in_src_is_reached():
    assert (REPO / "src").is_dir()
    missing = unreached(REPO)
    assert not missing, "public names only tests (or nothing) reach:\n" + "\n".join(missing)


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_a_name_nothing_references_is_reported(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": "def orphan():\n    return 1\n\n\ndef _private():\n    return 2\n",
    })
    assert unreached(root) == ["pkg/mod.py:1 orphan"]


def test_a_name_only_tests_reference_is_reported(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/mod.py": "LIMIT = 3\n\n\nclass Orphan:\n    pass\n",
        "tests/test_mod.py": "from pkg.mod import LIMIT, Orphan\nOrphan(), LIMIT\n",
    })
    assert unreached(root) == ["pkg/mod.py:1 LIMIT", "pkg/mod.py:4 Orphan"]


def test_a_reexport_or_a_docstring_is_not_a_reference(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": (
            '"""Use :func:`orphan` or ``pkg.mod.orphan``."""\n'
            "from pkg.mod import orphan\n"
            '__all__ = ["orphan"]\n'
        ),
        "src/pkg/mod.py": "def orphan():\n    # orphan() is called by nobody\n    return 1\n",
        "examples/demo.py": '"""Calls orphan()."""\nprint("orphan")\n',
    })
    assert unreached(root) == ["pkg/mod.py:1 orphan"]


def test_a_name_a_sibling_module_calls_is_not_reported(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/helpers.py": "def helper():\n    return 1\n",
        "src/pkg/mod.py": "from pkg.helpers import helper\n_VALUE = helper()\n",
    })
    assert unreached(root) == []


def test_own_module_attributes_and_entry_points_are_references(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__main__.py": "def main():\n    return run()\n\n\ndef run():\n    return 0\n",
        "src/pkg/cli.py": "def console():\n    return 0\n",
        "src/pkg/mod.py": "SIZE = 4\n",
        "bench/run.py": "import pkg.mod\nprint(pkg.mod.SIZE)\n",
        "pyproject.toml": '[project]\nname = "pkg"\n\n[project.scripts]\npkg = "pkg.cli:console"\n',
        "setup.py": 'from setuptools import setup\nsetup(entry_points={"console_scripts": '
                    '["pkg-main = pkg.__main__:main"]})\n',
    })
    assert unreached(root) == []
