"""Only ``Dataset.map_payload`` maps a shard file.

A mapping pays off only for a reader that keeps the shard: the feature store
holds one per shard, shares its pages with other serving processes and stays
on the inode it first read.  Every one-pass reader — the trainer's pool,
scans, ``take``, compaction — reads owned bytes with ``read_file``, which
costs a fraction of setting up and tearing down a mapping of a few-KB file,
and lets the pool's byte budget bound memory the process holds.  This test
walks the AST of every module under ``src/repro`` and fails on any use of
``map_file`` — a call, or a reference handed on (``partial(map_file, path)``)
— outside :data:`MAPPER`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: The one function allowed to map a file.
MAPPER = ("engine/shards.py", "Dataset.map_payload")


def map_file_uses(source: str, relative: str) -> list[tuple[str, str, int]]:
    """``(file, enclosing qualified name, line)`` of each use of ``map_file`` in ``source``."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        is_use = (isinstance(node, ast.Name) and node.id == "map_file") or (
            isinstance(node, ast.Attribute) and node.attr == "map_file"
        )
        if is_use:
            found.append((relative, ".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source, filename=relative), ())
    return found


def test_map_file_has_exactly_one_caller():
    uses = [
        use
        for path in sorted(PACKAGE.rglob("*.py"))
        for use in map_file_uses(path.read_text(), path.relative_to(PACKAGE).as_posix())
    ]
    assert [use[:2] for use in uses] == [MAPPER], f"map_file used outside {MAPPER}: {uses}"


def test_the_guard_sees_every_way_to_map():
    source = '''
from functools import partial
from repro.storage import mmapio
from repro.storage.mmapio import map_file, read_file

class Reader:
    def load(self, path):
        return map_file(path)

    def loader(self, path):
        return partial(map_file, path)

def module_level(path):
    return mmapio.map_file(path)

def fine(path):
    return read_file(path)
'''
    assert map_file_uses(source, "example.py") == [
        ("example.py", "Reader.load", 8),
        ("example.py", "Reader.loader", 11),
        ("example.py", "module_level", 14),
    ]
