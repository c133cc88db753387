"""A byte-budgeted LRU buffer pool over payloads that live on disk.

The paper's headline end-to-end results (Tables 6 and 7, Figures 9–11) are
driven by a single mechanism: with a 15 GB machine, only the well-compressed
formats keep every mini-batch in memory; the rest spill and pay disk IO on
every epoch.  The buffer pool makes that mechanism measurable:

* each entry is a key and a loader that reads its payload from disk;
* the pool holds at most ``budget_bytes`` of loaded payloads, a payload's
  size being ``len(payload)``;
* a hit returns the cached payload; a miss calls the loader and counts the
  bytes it returned in ``stats.bytes_read_from_disk``.

The pool counts bytes and models no disk: what a read costs is whatever the
loader's real read costs.  The out-of-core engine registers one loader per
shard file, which reads the file into bytes the process owns
(:func:`repro.storage.mmapio.read_file`), so the budget bounds memory the
process holds, and an eviction frees it.

Eviction is LRU, which against MGD's cyclic access pattern produces the
worst-case behaviour the paper describes: once the working set exceeds the
budget, every access misses.

Each pool keeps its own :class:`BufferPoolStats` *and* mirrors the traffic
into process-global ``storage.pool.*`` metrics (hits, misses, evictions,
bytes read, and a ``bytes_resident`` gauge), so ``repro.obs`` snapshots see
pool behaviour without holding a pool reference.  An internal re-entrant
lock makes ``read``/``put_on_disk`` safe under concurrent callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.obs import metrics as obs_metrics


#: What loaders and reads hand back.  Every shard loader returns a read-only
#: ``memoryview`` over the shard file's bytes, read into memory the pool then
#: owns (:func:`repro.storage.mmapio.read_file`).
Payload = bytes | memoryview


@dataclass
class BufferPoolStats:
    """Counters accumulated by a :class:`BufferPool`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_read_from_disk: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class BufferPool:
    """LRU buffer pool over serialised mini-batches.

    Parameters
    ----------
    budget_bytes:
        Memory available for cached batches ("RAM size" in the experiments).
    """

    budget_bytes: int
    stats: BufferPoolStats = field(default_factory=BufferPoolStats)

    def __post_init__(self) -> None:
        if self.budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        self._loaders: dict[int, Callable[[], Payload]] = {}
        self._cache: OrderedDict[int, Payload] = OrderedDict()  # key -> loaded payload
        self._cached_bytes = 0
        # Re-entrant: loaders registered via put_on_disk may themselves be
        # pool-adjacent; RLock keeps an accidental nested read from deadlocking.
        self._lock = threading.RLock()
        self._m_hits = obs_metrics.counter("storage.pool.hits")
        self._m_misses = obs_metrics.counter("storage.pool.misses")
        self._m_evictions = obs_metrics.counter("storage.pool.evictions")
        self._m_disk_bytes = obs_metrics.counter("storage.pool.bytes_read_from_disk")
        self._m_resident = obs_metrics.gauge("storage.pool.bytes_resident")

    # -- population -----------------------------------------------------------

    def put_on_disk(self, key: int, loader: Callable[[], Payload]) -> None:
        """Register batch ``key``, read through ``loader`` on a miss (not yet cached)."""
        with self._lock:
            # Re-registration replaces the payload, so any cached copy is stale.
            dropped = self._cache.pop(key, None)
            if dropped is not None:
                self._cached_bytes -= len(dropped)
                self._m_resident.dec(len(dropped))
            self._loaders[key] = loader

    def __contains__(self, key: int) -> bool:
        return key in self._loaders

    @property
    def cached_bytes(self) -> int:
        return self._cached_bytes

    @property
    def resident_keys(self) -> list[int]:
        """Keys currently cached in memory (LRU order, oldest first)."""
        with self._lock:
            return list(self._cache)

    # -- access ---------------------------------------------------------------

    def read(self, key: int) -> Payload:
        """Read a batch, going through the cache and loading it on a miss.

        A miss returns whatever the loader produced — for shard files, a view
        of the bytes read from the file; caching one holds those bytes until
        it is evicted, so the pool budget bounds them.
        """
        with self._lock:
            loader = self._loaders.get(key)
            if loader is None:
                raise KeyError(f"batch {key} was never stored")
            payload = self._cache.get(key)
            if payload is not None:
                self.stats.hits += 1
                self._m_hits.inc()
                self._cache.move_to_end(key)
                return payload
            payload = loader()
            self.stats.misses += 1
            self.stats.bytes_read_from_disk += len(payload)
            self._m_misses.inc()
            self._m_disk_bytes.inc(len(payload))
            self._admit(key, payload)
            return payload

    def _admit(self, key: int, payload: Payload) -> None:
        size = len(payload)
        if size > self.budget_bytes:
            # The batch alone exceeds the budget; it can never be cached.
            return
        while self._cached_bytes + size > self.budget_bytes:
            _evicted_key, evicted = self._cache.popitem(last=False)
            self._cached_bytes -= len(evicted)
            self.stats.evictions += 1
            self._m_evictions.inc()
            self._m_resident.dec(len(evicted))
        self._cache[key] = payload
        self._cached_bytes += size
        self._m_resident.inc(size)
