"""Thread-safe process metrics: counters, gauges, and log-bucket histograms.

One registry serves every subsystem in the process.  Metrics are addressed
by dotted name plus optional labels (``counter("serve.requests", svc=0)``)
and created on first touch, so instrumentation sites never coordinate:

* :class:`Counter` — monotonically increasing totals (requests, hits,
  bytes read);
* :class:`Gauge` — values that go both ways (resident bytes);
* :class:`Histogram` — distributions over fixed log-scale buckets with
  p50/p95/p99 summaries (request latency, batch size, kernel timings).

A unit ``Counter.inc()`` takes no lock: it advances the counter's own
``itertools.count``, one C call that is exact under the GIL, and a read
looks at that count without advancing it.  Any other amount, and every
``Gauge`` and ``Histogram`` mutation, takes the metric's own private lock.
No lock is shared between metrics, so a snapshot is exact per metric and
consistent across metrics only at quiescence.

:func:`default_registry` returns the process-global registry the
instrumented hot paths feed; :func:`snapshot` dumps it as a plain dict (the
shape ``Dataset.stats(metrics=True)`` and ``service.metrics()`` return).
:func:`set_enabled` turns every mutation into an early-out no-op — the
serving benchmark measures instrumented vs uninstrumented throughput
through exactly this switch.
"""

from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_left

#: Fixed log-scale histogram bucket upper bounds: four buckets per decade
#: from 1e-7 to 1e4 (plus an implicit overflow bucket).  Wide enough for
#: microsecond kernel timings and for batch sizes / row counts alike, and
#: *fixed* so histograms from different runs are always mergeable.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(10.0 ** (e / 4.0) for e in range(-28, 17))

#: Module-wide switch; when False every mutation returns before it counts.
_ENABLED = True


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable metric mutations (reads keep working)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def enabled() -> bool:
    return _ENABLED


def _render(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """``("serve.requests", (("svc","0"),))`` -> ``"serve.requests{svc=0}"``."""
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def ticks(count: itertools.count) -> int:
    """How far an ``itertools.count()`` has advanced, read without advancing it."""
    return int(repr(count)[6:-1])  # "count(n)"


class _Metric:
    """Shared plumbing: identity, label set, and the private mutation lock."""

    __slots__ = ("name", "labels", "_lock")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def full_name(self) -> str:
        return _render(self.name, self.labels)


class Counter(_Metric):
    """A monotonically increasing total (float increments allowed).

    ``inc()`` of one is a tick of an ``itertools.count`` and takes no lock;
    any other amount is added under the counter's lock.  ``value`` is the
    sum of the two.
    """

    __slots__ = ("_ticks", "_value")

    def __init__(self, name: str, labels=()):
        super().__init__(name, labels)
        self._ticks = itertools.count()
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if not _ENABLED:
            return
        if amount == 1:
            next(self._ticks)
            return
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value + ticks(self._ticks)

    def _reset(self) -> None:
        with self._lock:
            self._ticks = itertools.count()
            self._value = 0


class Gauge(_Metric):
    """A value that can go up and down (resident bytes, queue depth)."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels=()):
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram(_Metric):
    """A distribution over fixed log-scale buckets.

    ``observe`` costs one bisect over the (tuple) bounds plus a few scalar
    updates under the lock — cheap enough for per-request call sites.
    Percentiles are estimated from the bucket counts (geometric interpolation
    inside the winning bucket, clamped to the observed min/max), which is
    exact enough to tell a 2x tail regression apart and never pretends to
    sub-bucket precision.
    """

    __slots__ = ("buckets", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, labels=(), buckets=DEFAULT_BUCKETS):
        super().__init__(name, labels)
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimated value at ``fraction`` (0..1) of the distribution."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = fraction * self._count
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= rank and bucket_count:
                    break
            else:  # pragma: no cover - rank <= count always breaks
                index = len(self._counts) - 1
            if index == 0:
                low, high = self._min, self.buckets[0]
            elif index >= len(self.buckets):
                low, high = self.buckets[-1], self._max
            else:
                low, high = self.buckets[index - 1], self.buckets[index]
            low = max(low, self._min)
            high = min(high, self._max)
            if low <= 0 or high <= 0:
                return float(high if high > low else low)
            return float(math.sqrt(low * high))  # geometric bucket midpoint

    def summary(self) -> dict:
        """The JSON-ready shape ``snapshot()`` reports for histograms."""
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf


class MetricsRegistry:
    """Get-or-create home for every metric, addressable by name + labels."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], _Metric] = {}

    # -- creation --------------------------------------------------------------

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        if not name:
            raise ValueError("metric name must be non-empty")
        label_items = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        key = (name, label_items)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, label_items, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {metric.full_name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, *, buckets=DEFAULT_BUCKETS, **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    # -- reading ---------------------------------------------------------------

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return list(self._metrics.values())

    def snapshot(
        self,
        prefix: str = "",
        *,
        labels: dict | None = None,
        strip_labels: bool = False,
    ) -> dict:
        """Every matching metric as one plain dict (JSON-ready).

        ``prefix`` filters by dotted-name prefix; ``labels`` keeps only
        metrics whose label set contains every given pair (what
        ``service.metrics()`` uses to isolate one instance);
        ``strip_labels`` drops those filtered-on pairs from the keys, so one
        instance's series read under their bare names while any other label
        stays (``serve.shed{reason=deadline}``).
        """
        wanted = (
            tuple(sorted((str(k), str(v)) for k, v in labels.items()))
            if labels
            else None
        )
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.metrics():
            if prefix and not metric.name.startswith(prefix):
                continue
            if wanted is not None and not set(wanted) <= set(metric.labels):
                continue
            if strip_labels and wanted is not None:
                key = _render(metric.name, tuple(p for p in metric.labels if p not in wanted))
            else:
                key = metric.full_name
            if isinstance(metric, Counter):
                out["counters"][key] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][key] = metric.value
            else:
                out["histograms"][key] = metric.summary()
        return out

    def reset(self) -> None:
        """Zero every metric *in place* (live views keep their references)."""
        for metric in self.metrics():
            metric._reset()


#: The process-global registry every instrumented hot path feeds.
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    return _DEFAULT


def counter(name: str, **labels) -> Counter:
    return _DEFAULT.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return _DEFAULT.gauge(name, **labels)


def histogram(name: str, **labels) -> Histogram:
    return _DEFAULT.histogram(name, **labels)


def snapshot(prefix: str = "", **kwargs) -> dict:
    """Snapshot of the process-global registry (see ``MetricsRegistry.snapshot``)."""
    return _DEFAULT.snapshot(prefix, **kwargs)


def reset() -> None:
    """Zero the process-global registry (test isolation helper)."""
    _DEFAULT.reset()


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "default_registry",
    "enabled",
    "gauge",
    "histogram",
    "reset",
    "set_enabled",
    "snapshot",
    "ticks",
]
