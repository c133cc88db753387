"""Span tracing into a bounded ring buffer, dumpable as Chrome trace JSON.

Usage at an instrumentation site::

    from repro.obs import span

    with span("engine.encode.batch", shard=i, scheme="TOC"):
        ...  # timed region

Spans record wall time (``time.perf_counter`` deltas against a per-tracer
epoch) and nest: each thread keeps its own span stack, so a span opened
inside another on the same thread carries ``depth`` and ``parent``.  Closed
spans land in a ``deque(maxlen=...)`` ring buffer — old spans fall off, the
tracer never grows without bound, and dumping is always cheap.

Two dump shapes:

* :meth:`Tracer.dump` — a plain list of span dicts (our JSON format);
* :meth:`Tracer.dump_chrome` — the Chrome ``chrome://tracing`` /  Perfetto
  event format (``ph: "X"`` complete events with µs ``ts``/``dur``), which
  ``repro obs dump --format chrome`` writes.

Like metrics, tracing has a global kill switch (:func:`set_enabled`) that
turns ``span(...)`` into a no-op context manager, and a process-global
default tracer the instrumented hot paths feed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager

#: Default ring-buffer capacity: plenty for an encode+train+scan run while
#: keeping the worst-case dump a few hundred KB.
DEFAULT_CAPACITY = 4096

_ENABLED = True


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable span recording."""
    global _ENABLED
    _ENABLED = bool(enabled)


def enabled() -> bool:
    return _ENABLED


class Tracer:
    """Records closed spans into a bounded ring buffer."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=capacity)
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self._next_id = 0

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **labels):
        """Time a region; the span is recorded when the block exits.

        Yields the span's labels dict: a label known only once the region has
        run (say, which executor ran it) is set on it inside the block.
        """
        if not _ENABLED:
            yield labels
            return
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        start = time.perf_counter()
        stack.append(span_id)
        try:
            yield labels
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "name": name,
                "start_s": start - self._epoch,
                "duration_s": end - start,
                "thread_id": threading.get_ident(),
                "depth": len(stack),
                "parent": parent,
            }
            if labels:
                record["labels"] = {k: _jsonable(v) for k, v in labels.items()}
            with self._lock:
                self._spans.append(record)

    # -- reading ---------------------------------------------------------------

    def spans(self) -> list[dict]:
        """Closed spans, oldest first (copies — safe to mutate)."""
        with self._lock:
            return [dict(record) for record in self._spans]

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
        self._epoch = time.perf_counter()

    # -- dumping ---------------------------------------------------------------

    def dump(self, indent: int | None = None) -> str:
        """The span list as JSON text (our native format)."""
        return json.dumps(self.spans(), indent=indent)

    def dump_chrome(self, indent: int | None = None) -> str:
        """Spans in Chrome ``chrome://tracing`` trace-event JSON.

        Emits ``ph: "X"`` (complete) events with microsecond ``ts``/``dur``;
        loadable directly in chrome://tracing or ui.perfetto.dev.
        """
        pid = os.getpid()
        events = []
        for record in self.spans():
            event = {
                "name": record["name"],
                "cat": "repro",
                "ph": "X",
                "ts": record["start_s"] * 1e6,
                "dur": record["duration_s"] * 1e6,
                "pid": pid,
                "tid": record["thread_id"],
            }
            args = dict(record.get("labels", {}))
            args["depth"] = record["depth"]
            event["args"] = args
            events.append(event)
        return json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}, indent=indent
        )


def _jsonable(value):
    """Coerce a label value to something json.dumps accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: The process-global tracer the instrumented hot paths feed.
_DEFAULT = Tracer()


def default_tracer() -> Tracer:
    return _DEFAULT


def span(name: str, **labels):
    """Open a span on the process-global tracer (context manager)."""
    return _DEFAULT.span(name, **labels)


def spans() -> list[dict]:
    return _DEFAULT.spans()


def clear() -> None:
    """Drop recorded spans on the process-global tracer (test helper)."""
    _DEFAULT.clear()


__all__ = [
    "DEFAULT_CAPACITY",
    "Tracer",
    "clear",
    "default_tracer",
    "enabled",
    "set_enabled",
    "span",
    "spans",
]
