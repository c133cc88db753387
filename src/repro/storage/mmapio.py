"""Zero-copy shard reads (read-only mmap views) and the one way files are published.

``path.read_bytes()`` copies the whole shard file into a fresh Python bytes
object on every miss.  For decode paths that only *view* the payload (every
``from_bytes`` accepts buffer objects), that copy is pure overhead: mapping
the file and handing out a ``memoryview`` lets NumPy's ``frombuffer`` read
the packed arrays straight from the page cache.

:func:`map_file` is the only way a shard file is read: it returns a
``memoryview`` over a read-only ``mmap``; the view's buffer export keeps the
mapping (and the pages) alive, so the file descriptor is closed immediately
and callers treat the view like bytes.  Empty files cannot be mapped — they
come back as ``memoryview(b"")``.  A mapping stays valid because shard files
are never rewritten in place: writers publish each payload under its name
with :func:`publish_file` (``os.replace``), which leaves a live mapping on
the old inode.
``storage.mmap.maps`` / ``storage.mmap.bytes_mapped`` obs counters record
the mapping volume.
"""

from __future__ import annotations

import mmap
import os
from pathlib import Path

from repro.obs import metrics as obs_metrics


def publish_file(path: Path, payload) -> None:
    """Write ``payload`` to a dot-temp file beside ``path``, then ``os.replace`` it in.

    Every file the package writes goes through here: shards, manifests,
    label archives, checkpoints, calibrations, bench snapshots and trace
    dumps (``tests/test_file_writes.py`` holds every module to it; an npz
    is serialised into a ``BytesIO`` first).  A crash mid-write leaves the temp
    file, never a torn file under ``path``.  A reader may also hold a
    mapping of the file already at ``path`` (every shard read is a
    :func:`map_file` view, and feature stores keep them).  Rewriting that
    file in place would truncate the mapped inode under the reader — wrong
    rows, or SIGBUS on a page past the new end of file; the rename leaves
    the old mapping on the old inode.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def map_file(path: Path | str) -> memoryview:
    """Map ``path`` read-only and return a zero-copy ``memoryview`` of it.

    The mapping stays alive exactly as long as the returned view (or any
    slice of it, or any array viewing it) does.
    """
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        if size == 0:
            return memoryview(b"")
        mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    obs_metrics.counter("storage.mmap.maps").inc()
    obs_metrics.counter("storage.mmap.bytes_mapped").inc(size)
    return memoryview(mapping)


__all__ = ["map_file", "publish_file"]
