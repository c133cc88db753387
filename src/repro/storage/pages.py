"""Fixed-size pages: the layout model behind the storage fudge factor.

Postgres-style 8 KiB pages with a per-page and per-item header: this is the
source of the "fudge factor" the paper mentions when comparing BismarckTOC
to the raw C++ loop — variable-length blobs never pack pages perfectly, so
the stored size (and thus the IO volume) is slightly larger than the sum of
the blob sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Page size, matching Postgres' default heap page.
PAGE_SIZE_BYTES = 8192

#: Fixed header at the start of every page.
PAGE_HEADER_BYTES = 24

#: Per-item (per-blob-chunk) overhead: item pointer + tuple header.
ITEM_HEADER_BYTES = 28


@dataclass
class Page:
    """One fixed-size page holding chunks of serialised mini-batches."""

    page_id: int
    used_bytes: int = PAGE_HEADER_BYTES
    items: list[tuple[int, int]] = field(default_factory=list)  # (batch_id, chunk_bytes)

    @property
    def free_bytes(self) -> int:
        return PAGE_SIZE_BYTES - self.used_bytes

    def can_fit(self, payload_bytes: int) -> bool:
        """Whether a chunk of ``payload_bytes`` (plus header) fits on this page."""
        return self.free_bytes >= payload_bytes + ITEM_HEADER_BYTES

    def add_item(self, batch_id: int, payload_bytes: int) -> None:
        if not self.can_fit(payload_bytes):
            raise ValueError(
                f"page {self.page_id} cannot fit {payload_bytes} bytes "
                f"(free: {self.free_bytes - ITEM_HEADER_BYTES})"
            )
        self.used_bytes += payload_bytes + ITEM_HEADER_BYTES
        self.items.append((batch_id, payload_bytes))


def pages_needed(blob_bytes: int) -> int:
    """Number of pages a blob of ``blob_bytes`` occupies when chunked."""
    usable = PAGE_SIZE_BYTES - PAGE_HEADER_BYTES - ITEM_HEADER_BYTES
    if blob_bytes <= 0:
        return 1
    return -(-blob_bytes // usable)


#: Chunks smaller than this are not worth placing on an almost-full page;
#: a new page is opened instead (mirrors real slotted-page behaviour).
_MIN_CHUNK_BYTES = 64


def layout_blobs(blob_sizes: list[int]) -> list[Page]:
    """Lay out blobs onto pages, TOAST-style.

    Each blob is split into chunks sized to the free space of the page being
    filled, so pages pack tightly; the residual overhead is the per-page and
    per-chunk headers (the "fudge factor").
    """
    pages: list[Page] = []
    open_page: Page | None = None

    for batch_id, size in enumerate(blob_sizes):
        remaining = max(int(size), 1)
        while remaining > 0:
            if open_page is None or open_page.free_bytes - ITEM_HEADER_BYTES < _MIN_CHUNK_BYTES:
                open_page = Page(page_id=len(pages))
                pages.append(open_page)
            chunk = min(remaining, open_page.free_bytes - ITEM_HEADER_BYTES)
            open_page.add_item(batch_id, chunk)
            remaining -= chunk
    return pages


def stored_bytes(blob_sizes: list[int]) -> int:
    """Total on-disk bytes after page layout (includes the fudge factor)."""
    return len(layout_blobs(blob_sizes)) * PAGE_SIZE_BYTES
