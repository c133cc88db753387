"""Storage substrate: the byte-budgeted buffer pool, page layout and file IO.

The paper's end-to-end experiments hinge on two storage-level effects:

1. **which formats fit in memory** — once compressed mini-batches exceed the
   buffer budget they spill to disk and every epoch pays IO again
   (:mod:`repro.storage.buffer_pool`);
2. **the storage fudge factor** — blobs laid out on fixed-size pages take a
   little more room than the sum of their sizes (:mod:`repro.storage.pages`).

:mod:`repro.storage.mmapio` reads shard files — into owned bytes for a
one-pass reader, as a read-only mapping for the feature store that keeps
them — and is the one way any file is written (publish by rename).
"""

from repro.storage.buffer_pool import BufferPool, BufferPoolStats, DiskBlob
from repro.storage.pages import Page, PAGE_SIZE_BYTES

__all__ = [
    "BufferPool",
    "BufferPoolStats",
    "DiskBlob",
    "PAGE_SIZE_BYTES",
    "Page",
]
