"""Storage substrate: the byte-budgeted buffer pool and file IO.

The paper's end-to-end experiments hinge on one storage-level effect:
**which formats fit in memory** — once compressed mini-batches exceed the
buffer budget they spill to disk and every epoch reads them again
(:mod:`repro.storage.buffer_pool`, which counts those bytes and models no
disk).

:mod:`repro.storage.mmapio` reads shard files — into owned bytes for a
one-pass reader, as a read-only mapping for the feature store that keeps
them — and is the one way any file is written (publish by rename).
"""

from repro.storage.buffer_pool import BufferPool, BufferPoolStats

__all__ = [
    "BufferPool",
    "BufferPoolStats",
]
