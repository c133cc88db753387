"""A byte-budgeted buffer pool with simulated disk latency.

The paper's headline end-to-end results (Tables 6 and 7, Figures 9–11) are
driven by a single mechanism: with a 15 GB machine, only the well-compressed
formats keep every mini-batch in memory; the rest spill and pay disk IO on
every epoch.  The buffer pool makes that mechanism explicit and measurable:

* it holds at most ``budget_bytes`` of compressed batches;
* a hit returns the cached bytes instantly;
* a miss "reads from disk", which costs ``len(bytes) / disk_bandwidth``
  simulated seconds (never a real sleep — simulated time is accounted
  separately so the tests stay fast and deterministic).

Eviction is LRU, which against MGD's cyclic access pattern produces the
worst-case behaviour the paper describes: once the working set exceeds the
budget, effectively every access misses.

Entries come in two flavours.  A plain ``bytes`` payload models a blob whose
"disk" is simulated (the original behaviour, used by the simulation benches).
A :class:`DiskBlob` is a handle to a payload that truly lives on disk — the
out-of-core engine registers one per shard file — and is only loaded into
memory when admitted to the cache, so the pool's byte budget genuinely bounds
resident memory.

Each pool keeps its own :class:`BufferPoolStats` *and* mirrors the traffic
into process-global ``storage.pool.*`` metrics (hits, misses, evictions,
bytes read, and a ``bytes_resident`` gauge), so ``repro.obs`` snapshots see
pool behaviour without holding a pool reference.  An internal re-entrant
lock makes ``read``/``put_on_disk`` safe under concurrent callers (the
serving threads that share a feature store's pool).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.obs import metrics as obs_metrics


#: What loaders and reads hand back: plain bytes for a simulated-disk entry,
#: or — from every shard loader — a zero-copy ``memoryview`` over the mmap'd
#: shard file (:func:`repro.storage.mmapio.map_file`).
Payload = bytes | memoryview


@dataclass(frozen=True)
class DiskBlob:
    """Handle to a payload that lives on real disk and is loaded on demand."""

    size: int
    loader: Callable[[], Payload]

    def __len__(self) -> int:
        return self.size


@dataclass
class BufferPoolStats:
    """Counters accumulated by a :class:`BufferPool`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_read_from_disk: int = 0
    simulated_io_seconds: float = 0.0

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
    disk_bandwidth_bytes_per_sec:
        Simulated sequential-read bandwidth used to convert missed bytes into
        simulated IO seconds (default 150 MB/s, a typical cloud disk).
    """

    budget_bytes: int
    disk_bandwidth_bytes_per_sec: float = 150e6
    stats: BufferPoolStats = field(default_factory=BufferPoolStats)

    def __post_init__(self) -> None:
        if self.budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        if self.disk_bandwidth_bytes_per_sec <= 0:
            raise ValueError("disk_bandwidth_bytes_per_sec must be positive")
        self._store: dict[int, bytes | DiskBlob] = {}
        self._cache: OrderedDict[int, int] = OrderedDict()  # key -> size
        self._resident: dict[int, Payload] = {}  # cached payloads of DiskBlob entries
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

    def put_on_disk(
        self,
        key: int,
        payload: bytes | None = None,
        *,
        size: int | None = None,
        loader: Callable[[], Payload] | None = None,
    ) -> None:
        """Register a batch as residing on disk (not yet cached).

        Either pass ``payload`` (simulated disk: the bytes are kept around and
        misses only charge simulated IO), or ``size`` + ``loader`` for a blob
        that truly lives on disk and is read through ``loader`` on a miss.
        """
        if payload is not None:
            if size is not None or loader is not None:
                raise ValueError("pass either payload or size+loader, not both")
            entry: bytes | DiskBlob = payload
        else:
            if size is None or loader is None:
                raise ValueError("lazy entries need both size and loader")
            if size < 0:
                raise ValueError("size must be non-negative")
            entry = DiskBlob(size=int(size), loader=loader)
        with self._lock:
            # Re-registration replaces the payload, so any cached copy is stale.
            if key in self._cache:
                dropped = self._cache.pop(key)
                self._cached_bytes -= dropped
                self._m_resident.dec(dropped)
                self._resident.pop(key, None)
            self._store[key] = entry

    def __contains__(self, key: int) -> bool:
        return key in self._store

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
        """Read a batch, going through the cache and charging IO on a miss.

        Lazy (``DiskBlob``) entries return whatever their loader produced —
        for shard files, a zero-copy memoryview of their mapping; caching
        one pins the mapping, so the pool budget still bounds resident bytes.
        """
        with self._lock:
            if key not in self._store:
                raise KeyError(f"batch {key} was never stored")
            entry = self._store[key]
            if key in self._cache:
                self.stats.hits += 1
                self._m_hits.inc()
                self._cache.move_to_end(key)
                return self._resident[key] if isinstance(entry, DiskBlob) else entry
            # Miss: charge simulated disk IO, then admit to the cache.
            payload = entry.loader() if isinstance(entry, DiskBlob) else entry
            self.stats.misses += 1
            self.stats.bytes_read_from_disk += len(payload)
            self.stats.simulated_io_seconds += len(payload) / self.disk_bandwidth_bytes_per_sec
            self._m_misses.inc()
            self._m_disk_bytes.inc(len(payload))
            self._admit(key, payload, keep_resident=isinstance(entry, DiskBlob))
            return payload

    def _admit(self, key: int, payload: Payload, keep_resident: bool) -> None:
        size = len(payload)
        if size > self.budget_bytes:
            # The batch alone exceeds the budget; it can never be cached.
            return
        while self._cached_bytes + size > self.budget_bytes:
            evicted_key, evicted_size = self._cache.popitem(last=False)
            self._cached_bytes -= evicted_size
            self._resident.pop(evicted_key, None)
            self.stats.evictions += 1
            self._m_evictions.inc()
            self._m_resident.dec(evicted_size)
        self._cache[key] = size
        self._cached_bytes += size
        self._m_resident.inc(size)
        if keep_resident:
            self._resident[key] = payload

    # -- convenience ----------------------------------------------------------

    def fits_entirely(self) -> bool:
        """Whether all stored batches fit in the budget simultaneously."""
        return sum(len(p) for p in self._store.values()) <= self.budget_bytes

    def total_stored_bytes(self) -> int:
        return sum(len(p) for p in self._store.values())

    def reset_stats(self) -> None:
        self.stats = BufferPoolStats()
