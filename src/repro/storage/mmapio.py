"""Shard reads, split by access pattern, and the one way files are published.

A shard file is read one of two ways, chosen by how long the reader keeps it:

* :func:`read_file` — one pass.  The trainer's buffer pool, ``Dataset.scan``
  and ``take``, and compaction read a shard, decode it and drop it (or, in
  the pool, hold it under a byte budget).  The file is read into bytes the
  process owns, and the returned read-only ``memoryview`` keeps every
  parser's ``raw[offset:]`` slice zero-copy (slicing the ``bytes`` itself
  would copy).  A read costs one ``open``/``read``/``close``, less than
  setting up and tearing down a mapping of a few-KB file.
* :func:`map_file` — kept.  A feature store holds each shard for its
  lifetime; a read-only ``mmap`` shares the page cache across serving
  processes and pins the store to the inode it first read.  The view's
  buffer export keeps the mapping (and the pages) alive, so the file
  descriptor is closed immediately and callers treat the view like bytes.
  Empty files cannot be mapped — they come back as ``memoryview(b"")``.
  ``Dataset.map_payload`` is its one caller in the package.

A mapping stays valid because shard files are never rewritten in place:
writers publish each payload under its name with :func:`publish_file`
(``os.replace``), which leaves a live mapping on the old inode.
``storage.reads`` / ``storage.bytes_read`` and ``storage.mmap.maps`` /
``storage.mmap.bytes_mapped`` obs counters record the volume of each.
"""

from __future__ import annotations

import mmap
import os
from pathlib import Path

from repro.obs import metrics as obs_metrics

# Bound once: two registry lookups per call cost about as much as the read itself.
_READS = obs_metrics.counter("storage.reads")
_BYTES_READ = obs_metrics.counter("storage.bytes_read")
_MAPS = obs_metrics.counter("storage.mmap.maps")
_BYTES_MAPPED = obs_metrics.counter("storage.mmap.bytes_mapped")


def publish_file(path: Path, payload) -> None:
    """Write ``payload`` to a dot-temp file beside ``path``, then ``os.replace`` it in.

    Every file the package writes goes through here: shards, manifests,
    label archives, checkpoints, calibrations, bench snapshots and trace
    dumps (``tests/test_file_writes.py`` holds every module to it; an npz
    is serialised into a ``BytesIO`` first).  A crash mid-write leaves the temp
    file, never a torn file under ``path``.  A reader may also hold a
    mapping of the file already at ``path`` (a feature store keeps a
    :func:`map_file` view of every shard it has served).  Rewriting that
    file in place would truncate the mapped inode under the reader — wrong
    rows, or SIGBUS on a page past the new end of file; the rename leaves
    the old mapping on the old inode.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def read_file(path: Path | str) -> memoryview:
    """Read ``path`` into bytes of its own and return a read-only view of them.

    One ``os.read`` per file in practice: the loop asks for the ``fstat``
    size and only goes round again on a short read, stopping at end of file.
    (``open()`` builds a ``FileIO`` object first, which adds most of a read's
    cost again on a few-KB shard.)
    """
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        remaining = os.fstat(fd).st_size
        chunks = []
        while remaining > 0 and (chunk := os.read(fd, remaining)):
            chunks.append(chunk)
            remaining -= len(chunk)
    finally:
        os.close(fd)
    data = chunks[0] if len(chunks) == 1 else b"".join(chunks)
    _READS.inc()
    _BYTES_READ.inc(len(data))
    return memoryview(data)


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
    _MAPS.inc()
    _BYTES_MAPPED.inc(size)
    return memoryview(mapping)


__all__ = ["map_file", "publish_file", "read_file"]
