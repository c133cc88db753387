"""The package reads no environment variable that switches its behaviour.

Kernels and shard reads each have one implementation; a run's behaviour is
set by arguments, never by the environment.  This test lists every
``os.environ`` / ``os.getenv`` key under ``src/repro`` and fails when one
outside the known plumbing appears — add a parameter instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

#: Where ``BENCH_*.json`` files land, and the path the cluster's fork server
#: hands its workers: plumbing, not switches.
KNOWN_KEYS = {"BENCH_JSON_DIR", "PYTHONPATH"}

PACKAGE = Path(repro.__file__).resolve().parent


def _is_os_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _environment_keys(path: Path) -> list[str]:
    """Every key ``path`` reads or writes through ``os.environ`` / ``os.getenv``.

    A key named by a module-level string constant resolves to its value; an
    access whose key cannot be resolved, or any other use of ``environ``
    (``from os import environ``, passing the mapping around), is listed as
    ``<...>`` so it fails the check too.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def key(node: ast.AST | None) -> str:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name) and node.id in constants:
            return constants[node.id]
        return f"<{ast.unparse(node) if node is not None else 'no key'}>"

    keys: list[str] = []
    handled: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_os_attr(node.value, "environ"):
            keys.append(key(node.slice))
            handled.add(id(node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if node.func.attr in ("get", "pop", "setdefault") and _is_os_attr(receiver, "environ"):
                keys.append(key(node.args[0] if node.args else None))
                handled.add(id(receiver))
            elif _is_os_attr(node.func, "getenv"):
                keys.append(key(node.args[0] if node.args else None))
                handled.add(id(node.func))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            keys.extend(f"<from os import {a.name}>" for a in node.names
                        if a.name in ("environ", "getenv"))
    for node in ast.walk(tree):
        is_environ = _is_os_attr(node, "environ") or _is_os_attr(node, "getenv")
        if is_environ and id(node) not in handled:
            keys.append(f"<{ast.unparse(node)} used whole>")
    return keys


def test_only_known_environment_keys_are_read():
    found = {
        f"{path.relative_to(PACKAGE)}: {key}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for key in _environment_keys(path)
    }
    unknown = sorted(entry for entry in found if entry.split(": ", 1)[1] not in KNOWN_KEYS)
    assert not unknown, f"environment switches are back: {unknown}"
    assert {entry.split(": ", 1)[1] for entry in found} == KNOWN_KEYS


def test_the_scan_sees_a_switch(tmp_path):
    """The check itself: each way of reading a switch is caught."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "SWITCH = 'REPRO_FAST'\n"
        "a = os.environ.get(SWITCH, '1')\n"
        "b = os.environ['REPRO_B']\n"
        "c = os.getenv('REPRO_C')\n"
        "d = dict(os.environ)\n"
    )
    assert _environment_keys(probe) == [
        "REPRO_FAST", "REPRO_B", "REPRO_C", "<os.environ used whole>",
    ]
