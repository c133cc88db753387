"""A small thread-safe LRU cache shared by the serving layer.

Both serving LRUs — parsed shards in the feature store and a network's row
predictions in the service — are plain count-bounded caches accessed from
client threads *and* the micro-batcher worker, so the dict bookkeeping must
be guarded.  The lock covers only the bookkeeping: expensive work (decoding
a block, running the model) happens outside, and a racing miss simply does
the work twice and last-write-wins on the put, which is harmless.

This is deliberately not :class:`~repro.storage.buffer_pool.BufferPool`,
whose budget is *bytes* and whose miss accounting is the point of the
paper's experiments; here the budget is entry count and there is nothing to
simulate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Distinguishes "missing" from a cached falsy value (e.g. prediction 0.0).
_MISSING = object()


class LRUCache:
    """Count-bounded, thread-safe LRU mapping."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                return default
            self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        """Insert/refresh ``key``, evicting the oldest entries past capacity."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data
