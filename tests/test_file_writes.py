"""Every file the package writes goes through ``storage.mmapio.publish_file``.

``publish_file`` writes a dot-temp file and renames it into place, so a
crash never leaves a torn file under a name a reader looks up, and a reader
that has the old file mapped keeps its pages.  These tests walk the AST of
every module under ``src/repro`` and fail on any other way of putting bytes
in a file: ``write_text``/``write_bytes``/``tofile``, ``open`` or
``Path.open`` in a writing mode, ``os.open`` with a writing flag,
``os.replace``/``os.rename``/``os.write``, ``shutil`` copies and moves,
``json.dump``/``pickle.dump`` to a file object, and NumPy's ``save*``
unless it serialises into an ``io.BytesIO`` that is then published.
"""

from __future__ import annotations

import ast
import io
from pathlib import Path

import numpy as np

import repro
from repro.storage import mmapio

PACKAGE = Path(repro.__file__).resolve().parent

#: The one function allowed to write and rename: the helper itself.
PUBLISHER = ("storage/mmapio.py", "publish_file")

#: Methods that write to a file whatever object they are called on.
FILE_METHODS = {"write_text", "write_bytes", "tofile", "writelines"}

#: ``module.function`` calls that write, rename or copy files.
MODULE_WRITERS = {
    "os": {"replace", "rename", "renames", "write", "truncate", "link", "symlink"},
    "shutil": {"copy", "copy2", "copyfile", "copyfileobj", "copytree", "move"},
    "json": {"dump"},
    "pickle": {"dump"},
}

#: NumPy writers; allowed only into an ``io.BytesIO`` the caller then publishes.
NUMPY_SAVERS = {"save", "savez", "savez_compressed", "savetxt"}

#: ``os.open`` flags that open a file for writing.
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _dotted(node: ast.AST) -> tuple[str | None, str | None]:
    """``(module, attr)`` for ``module.attr``; ``(None, name)`` for a bare name."""
    if isinstance(node, ast.Attribute):
        value = node.value
        return (value.id if isinstance(value, ast.Name) else None), node.attr
    if isinstance(node, ast.Name):
        return None, node.id
    return None, None


def _writing_mode(call: ast.Call) -> bool:
    """Whether an ``open``-style call passes a literal mode that writes."""
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    # ``open(path, mode)`` takes the mode second; ``path.open(mode)`` first.
    positional = 1 if isinstance(call.func, ast.Name) else 0
    if len(call.args) > positional:
        modes.append(call.args[positional])
    return any(
        isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        and any(flag in mode.value for flag in "wax+")
        for mode in modes
    )


def _bytesio_names(function: ast.AST) -> set[str]:
    """Names bound to ``io.BytesIO()`` / ``BytesIO()`` in ``function``'s body."""
    names = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _dotted(node.value.func)[1] == "BytesIO"
        ):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _write(call: ast.Call, buffers: set[str]) -> str | None:
    """Describe ``call`` if it writes a file other than through ``publish_file``."""
    module, name = _dotted(call.func)
    if isinstance(call.func, ast.Attribute) and name in FILE_METHODS:
        return name
    if module in MODULE_WRITERS and name in MODULE_WRITERS[module]:
        return f"{module}.{name}"
    if module in ("np", "numpy") and name in NUMPY_SAVERS:
        target = call.args[0] if call.args else None
        if not (isinstance(target, ast.Name) and target.id in buffers):
            return f"np.{name} to a path"
        return None
    if module == "os" and name == "open":
        flags = {
            n.attr for arg in call.args[1:] for n in ast.walk(arg) if isinstance(n, ast.Attribute)
        }
        return "os.open for writing" if flags & WRITE_FLAGS else None
    if name == "open" and _writing_mode(call):
        return "open for writing"
    return None


def writes_in(source: str, relative: str) -> list[str]:
    """Every file write in ``source`` outside :data:`PUBLISHER`, as ``file:line what``."""
    tree = ast.parse(source, filename=relative)
    found = []

    def visit(node: ast.AST, function: str | None, buffers: set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, buffers = node.name, _bytesio_names(node)
        if isinstance(node, ast.Call) and (relative, function) != PUBLISHER:
            what = _write(node, buffers)
            if what is not None:
                found.append(f"{relative}:{node.lineno} {what}")
        for child in ast.iter_child_nodes(node):
            visit(child, function, buffers)

    visit(tree, None, set())
    return found


def test_no_module_writes_a_file_except_through_publish_file():
    found = [
        write
        for path in sorted(PACKAGE.rglob("*.py"))
        for write in writes_in(path.read_text(), path.relative_to(PACKAGE).as_posix())
    ]
    assert not found, f"files written without storage.mmapio.publish_file: {found}"


def test_the_guard_sees_every_way_to_write():
    source = '''
import io, json, os, shutil
import numpy as np
from pathlib import Path

def bad(path, payload, fh):
    Path(path).write_text("x")
    path.write_bytes(payload)
    np.savez(path, a=payload)
    np.save(fh, payload)
    open(path, "w")
    open(path, mode="ab")
    path.open("wb")
    os.open(path, os.O_WRONLY | os.O_CREAT)
    os.replace(path, path)
    shutil.copyfile(path, path)
    json.dump({}, fh)
    payload.tofile(path)

def good(path):
    buffer = io.BytesIO()
    np.savez(buffer, a=np.zeros(1))
    open(path).read()
    open(path, "rb").read()
    path.open().read()
    os.open(path, os.O_RDONLY)
    "a.b".replace(".", "/")
    json.dumps({})
'''
    found = writes_in(source, "example.py")
    assert [line.split(" ", 1)[1] for line in found] == [
        "write_text",
        "write_bytes",
        "np.savez to a path",
        "np.save to a path",
        "open for writing",
        "open for writing",
        "open for writing",
        "os.open for writing",
        "os.replace",
        "shutil.copyfile",
        "json.dump",
        "tofile",
    ]
    # The helper itself may write and rename; the same calls anywhere else may not.
    helper = "def publish_file(path, payload):\n    path.write_bytes(payload)\n"
    assert writes_in(helper, PUBLISHER[0]) == []
    assert writes_in(helper, "engine/shards.py") == ["engine/shards.py:2 write_bytes"]


def test_an_npz_published_from_memory_loads_like_one_saved_to_a_path(tmp_path):
    buffer = io.BytesIO()
    np.savez(buffer, parameters=np.arange(5.0))
    mmapio.publish_file(tmp_path / "weights.npz", buffer.getvalue())
    with np.load(tmp_path / "weights.npz") as archive:
        np.testing.assert_array_equal(archive["parameters"], np.arange(5.0))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["weights.npz"]


def test_a_buffer_counts_only_in_the_function_that_made_it():
    source = '''
import io
import numpy as np

def make():
    buffer = io.BytesIO()
    return buffer

def save(buffer):
    np.savez(buffer, a=np.zeros(1))
'''
    assert writes_in(source, "example.py") == ["example.py:10 np.savez to a path"]
