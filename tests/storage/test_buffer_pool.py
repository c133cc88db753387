"""Tests for the byte-budgeted buffer pool."""

from __future__ import annotations

import pytest

from repro.storage.buffer_pool import BufferPool


def _payload(size: int, fill: int = 0) -> bytes:
    return bytes([fill % 256]) * size


def _loader(payload: bytes):
    """A loader over an in-memory payload, as the end-to-end experiments register."""
    return lambda: payload


class TestBufferPoolBasics:
    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(budget_bytes=0)

    def test_read_unknown_key_rejected(self):
        pool = BufferPool(budget_bytes=100)
        with pytest.raises(KeyError):
            pool.read(0)

    def test_first_read_is_a_miss_second_is_a_hit(self):
        pool = BufferPool(budget_bytes=1000)
        pool.put_on_disk(0, _loader(_payload(100)))
        pool.read(0)
        pool.read(0)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1

    def test_miss_counts_the_bytes_read(self):
        pool = BufferPool(budget_bytes=1000)
        pool.put_on_disk(0, _loader(_payload(250)))
        pool.read(0)
        assert pool.stats.bytes_read_from_disk == 250
        pool.read(0)
        assert pool.stats.bytes_read_from_disk == 250  # hit: nothing read

    def test_contains(self):
        pool = BufferPool(budget_bytes=1000)
        pool.put_on_disk(3, _loader(_payload(10)))
        assert 3 in pool
        assert 4 not in pool
        assert pool.cached_bytes == 0  # registered, not yet read

    def test_no_constructor_takes_a_disk_bandwidth(self):
        """The pool counts bytes; nothing in the engine models a disk's speed."""
        import inspect

        from repro.api import Estimator
        from repro.engine.trainer import OutOfCoreTrainer

        for cls in (BufferPool, OutOfCoreTrainer, Estimator):
            params = inspect.signature(cls).parameters
            assert not [name for name in params if "bandwidth" in name], cls


class TestEviction:
    def test_everything_cached_when_it_fits(self):
        pool = BufferPool(budget_bytes=1000)
        for key in range(5):
            pool.put_on_disk(key, _loader(_payload(100, key)))
        for _ in range(3):
            for key in range(5):
                pool.read(key)
        assert pool.stats.misses == 5
        assert pool.stats.hits == 10
        assert pool.stats.evictions == 0
        assert pool.resident_keys == list(range(5))

    def test_cyclic_access_thrashes_when_over_budget(self):
        """The paper's spilling behaviour: an LRU pool smaller than the cyclic
        working set misses on (almost) every access."""
        pool = BufferPool(budget_bytes=350)
        for key in range(5):
            pool.put_on_disk(key, _loader(_payload(100, key)))
        epochs = 4
        for _ in range(epochs):
            for key in range(5):
                pool.read(key)
        assert pool.stats.hit_rate == 0.0
        assert pool.stats.misses == 5 * epochs

    def test_eviction_respects_budget(self):
        pool = BufferPool(budget_bytes=250)
        for key in range(4):
            pool.put_on_disk(key, _loader(_payload(100, key)))
            pool.read(key)
        assert pool.cached_bytes <= 250
        assert pool.stats.evictions > 0

    def test_oversized_batch_never_cached(self):
        pool = BufferPool(budget_bytes=50)
        pool.put_on_disk(0, _loader(_payload(100)))
        pool.read(0)
        pool.read(0)
        assert pool.cached_bytes == 0
        assert pool.stats.misses == 2

    def test_lru_order(self):
        pool = BufferPool(budget_bytes=200)
        pool.put_on_disk(0, _loader(_payload(100, 0)))
        pool.put_on_disk(1, _loader(_payload(100, 1)))
        pool.put_on_disk(2, _loader(_payload(100, 2)))
        pool.read(0)
        pool.read(1)
        pool.read(0)  # touch 0 so 1 becomes the LRU victim
        pool.read(2)
        assert pool.resident_keys == [0, 2]


class TestHitRate:
    def test_hit_rate_zero_without_accesses(self):
        assert BufferPool(budget_bytes=10).stats.hit_rate == 0.0

    def test_hit_rate_computation(self):
        pool = BufferPool(budget_bytes=1000)
        pool.put_on_disk(0, _loader(_payload(10)))
        pool.read(0)
        pool.read(0)
        pool.read(0)
        assert pool.stats.hit_rate == pytest.approx(2 / 3)


class TestLoaderEntries:
    """Every entry is a loader: its payload is read on a miss and held until evicted."""

    def test_loader_called_on_miss_only(self):
        calls = []

        def loader():
            calls.append(1)
            return b"x" * 40

        pool = BufferPool(budget_bytes=1000)
        pool.put_on_disk(0, loader)
        assert pool.read(0) == b"x" * 40
        assert pool.read(0) == b"x" * 40  # hit: served from the cache
        assert len(calls) == 1
        assert pool.stats.hits == 1 and pool.stats.misses == 1

    def test_evicted_lazy_entry_is_reloaded(self):
        calls = []

        def make_loader(key):
            def loader():
                calls.append(key)
                return bytes([key]) * 60

            return loader

        pool = BufferPool(budget_bytes=100)  # fits one 60-byte blob at a time
        for key in range(3):
            pool.put_on_disk(key, make_loader(key))
        for _ in range(2):
            for key in range(3):
                assert pool.read(key) == bytes([key]) * 60
        assert pool.stats.evictions > 0
        assert len(calls) == pool.stats.misses == 6  # cyclic scan thrashes

    def test_an_entry_is_sized_by_what_its_loader_returns(self):
        pool = BufferPool(budget_bytes=100)
        pool.put_on_disk(0, lambda: memoryview(b"y" * 75))
        assert pool.read(0) == b"y" * 75
        assert pool.cached_bytes == pool.stats.bytes_read_from_disk == 75

    def test_an_empty_payload_is_cached_and_hits(self):
        calls = []
        pool = BufferPool(budget_bytes=10)
        pool.put_on_disk(0, lambda: calls.append(1) or b"")
        assert pool.read(0) == b""
        assert pool.read(0) == b""
        assert len(calls) == 1
        assert pool.stats.hits == 1 and pool.cached_bytes == 0

    def test_oversized_lazy_entry_never_cached(self):
        pool = BufferPool(budget_bytes=10)
        pool.put_on_disk(0, lambda: b"z" * 50)
        pool.read(0)
        pool.read(0)
        assert pool.stats.misses == 2
        assert pool.cached_bytes == 0

    def test_a_hit_returns_the_loaded_payload_itself(self):
        pool = BufferPool(budget_bytes=100)
        pool.put_on_disk(0, lambda: memoryview(bytearray(b"abc")))
        first = pool.read(0)
        assert pool.read(0) is first

    def test_a_failing_loader_counts_nothing_and_caches_nothing(self):
        pool = BufferPool(budget_bytes=100)

        def broken():
            raise OSError("shard file gone")

        pool.put_on_disk(0, broken)
        with pytest.raises(OSError, match="gone"):
            pool.read(0)
        assert pool.stats.accesses == 0
        assert pool.stats.bytes_read_from_disk == 0
        assert pool.cached_bytes == 0 and pool.resident_keys == []
        pool.put_on_disk(0, _loader(b"back"))
        assert pool.read(0) == b"back"
        assert pool.stats.misses == 1

    def test_eviction_releases_the_payload(self):
        import gc
        import weakref

        pool = BufferPool(budget_bytes=100)
        pool.put_on_disk(0, lambda: memoryview(bytearray(60)))
        pool.put_on_disk(1, lambda: memoryview(bytearray(60)))
        held = weakref.ref(pool.read(0))
        gc.collect()
        assert held() is not None  # cached: the pool owns the loaded bytes
        pool.read(1)  # admitting 1 evicts 0
        gc.collect()
        assert held() is None
        assert pool.resident_keys == [1]

    def test_reregistering_an_uncached_key_keeps_the_others_cached(self):
        pool = BufferPool(budget_bytes=1000)
        pool.put_on_disk(0, _loader(_payload(100, 0)))
        pool.put_on_disk(1, _loader(_payload(100, 1)))
        pool.read(0)
        pool.put_on_disk(1, _loader(_payload(50, 1)))
        assert pool.resident_keys == [0]
        assert pool.cached_bytes == 100
        pool.read(0)
        assert pool.stats.hits == 1

    def test_reregistration_invalidates_cached_copy(self):
        pool = BufferPool(budget_bytes=1000)
        pool.put_on_disk(0, _loader(b"old payload"))
        assert pool.read(0) == b"old payload"  # now cached
        pool.put_on_disk(0, _loader(b"new"))
        assert pool.read(0) == b"new"  # miss: the stale cache entry was dropped
        assert pool.stats.misses == 2
        pool.put_on_disk(0, _loader(b"newer"))
        assert pool.read(0) == b"newer"
        assert pool.cached_bytes == len(b"newer")


class TestEvictionAccounting:
    """Byte accounting under eviction pressure, mirrored into obs metrics.

    The pool feeds the process-global ``storage.pool.*`` metrics, which are
    shared by every pool in the process — so these tests assert on *deltas*
    around the operations, never on absolute metric values.
    """

    def test_sustained_pressure_keeps_bytes_within_budget(self):
        pool = BufferPool(budget_bytes=100)
        for key in range(5):
            pool.put_on_disk(key, _loader(_payload(60, fill=key)))
        for _ in range(3):  # cyclic over-budget access: the LRU worst case
            for key in range(5):
                pool.read(key)
                assert 0 <= pool.cached_bytes <= pool.budget_bytes
        assert pool.stats.evictions > 0
        assert pool.cached_bytes == sum(
            60 for _ in pool.resident_keys
        )  # ledger matches the actual resident set

    def test_metrics_mirror_stats_deltas(self):
        from repro.obs import metrics as obs_metrics

        evictions = obs_metrics.counter("storage.pool.evictions")
        disk_bytes = obs_metrics.counter("storage.pool.bytes_read_from_disk")
        resident = obs_metrics.gauge("storage.pool.bytes_resident")
        before = (evictions.value, disk_bytes.value, resident.value)

        pool = BufferPool(budget_bytes=100)
        for key in range(4):
            pool.put_on_disk(key, _loader(_payload(40, fill=key)))
        for key in range(4):
            pool.read(key)

        assert evictions.value - before[0] == pool.stats.evictions
        assert disk_bytes.value - before[1] == pool.stats.bytes_read_from_disk
        assert resident.value - before[2] == pool.cached_bytes

    def test_hit_and_miss_metrics_mirror_stats_deltas(self):
        from repro.obs import metrics as obs_metrics

        hits = obs_metrics.counter("storage.pool.hits")
        misses = obs_metrics.counter("storage.pool.misses")
        before = (hits.value, misses.value)
        pool = BufferPool(budget_bytes=100)
        for key in range(3):
            pool.put_on_disk(key, _loader(_payload(30, fill=key)))
        for _ in range(2):
            for key in range(3):
                pool.read(key)
        assert (pool.stats.hits, pool.stats.misses) == (3, 3)
        assert hits.value - before[0] == 3
        assert misses.value - before[1] == 3

    def test_reregistration_under_pressure_never_goes_negative(self):
        from repro.obs import metrics as obs_metrics

        resident = obs_metrics.gauge("storage.pool.bytes_resident")
        before = resident.value
        pool = BufferPool(budget_bytes=100)
        pool.put_on_disk(0, _loader(_payload(80)))
        pool.read(0)
        pool.put_on_disk(0, _loader(_payload(80, fill=1)))  # drops the cached copy
        assert pool.cached_bytes == 0
        assert resident.value - before == 0
        pool.read(0)
        assert pool.cached_bytes == 80
        assert resident.value - before == 80

    def test_concurrent_loads_keep_the_ledger_consistent(self):
        import threading

        pool = BufferPool(budget_bytes=150)
        n_keys, reads_per_thread, n_threads = 6, 200, 4
        for key in range(n_keys):
            pool.put_on_disk(key, lambda k=key: _payload(50, fill=k))

        errors: list[AssertionError] = []

        def worker(seed: int) -> None:
            try:
                for i in range(reads_per_thread):
                    key = (seed + i) % n_keys
                    assert pool.read(key) == _payload(50, fill=key)
                    assert 0 <= pool.cached_bytes <= pool.budget_bytes
            except AssertionError as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        # Every read was either a hit or a miss; nothing lost to races.
        assert pool.stats.accesses == n_threads * reads_per_thread
        assert pool.stats.bytes_read_from_disk == pool.stats.misses * 50
        assert 0 <= pool.cached_bytes <= pool.budget_bytes
        assert pool.cached_bytes == 50 * len(pool.resident_keys)

    def test_concurrent_reregistration_keeps_the_ledger_consistent(self):
        import sys
        import threading

        pool = BufferPool(budget_bytes=150)
        n_keys = 6
        for key in range(n_keys):
            pool.put_on_disk(key, _loader(_payload(50, fill=key)))
        stop = threading.Event()
        errors: list[AssertionError] = []

        def reader() -> None:
            try:
                i = 0
                while not stop.is_set():
                    key = i % n_keys
                    assert pool.read(key) == _payload(50, fill=key)
                    i += 1
            except AssertionError as exc:  # surfaced after join
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for _ in range(200):  # same bytes, fresh loader: each drops a cached copy
                for key in range(n_keys):
                    pool.put_on_disk(key, _loader(_payload(50, fill=key)))
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in readers:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in readers)

        assert not errors
        assert 0 <= pool.cached_bytes <= pool.budget_bytes
        assert pool.cached_bytes == 50 * len(pool.resident_keys)
        assert pool.stats.bytes_read_from_disk == 50 * pool.stats.misses
