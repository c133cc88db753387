"""Spans recorded by the harness around its own calls into the system.

The spans stay in memory while the benchmark runs and are written as one
Chrome-trace JSON file when it ends.  Nothing here reaches into ``repro``:
worker-process internals stay dark until the system grows request-scoped
tracing of its own (ROADMAP item 4).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path


class SpanRecorder:
    """Name, start, end, parent and phase of every traced call.

    A disabled recorder still hands out context managers, so the pipeline
    reads the same traced or not; they record nothing.
    """

    def __init__(self, enabled: bool, workload: str = ""):
        self.enabled = enabled
        self.workload = workload
        #: ``(name, start, end, parent_id, thread_id, phase)``; the index is the span id.
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, phase: str = ""):
        return _Span(self, name, phase)

    def add(self, name: str, start: float, end: float, parent: int | None, phase: str = "") -> int:
        """Record a finished span from timestamps the caller already took."""
        with self._lock:
            self.spans.append((name, start, end, parent, threading.get_ident(), phase))
            return len(self.spans) - 1

    def extend(self, name: str, intervals: list[tuple[float, float]], parent: int | None,
               phase: str = "") -> None:
        """Record one span per ``(start, end)`` pair, all from the calling thread."""
        tid = threading.get_ident()
        with self._lock:
            self.spans.extend((name, s, e, parent, tid, phase) for s, e in intervals)

    def write_chrome(self, path: Path) -> Path:
        """Write ``chrome://tracing`` / Perfetto "complete" events."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"id": index, "parent": parent, "workload": self.workload, "phase": phase},
            }
            for index, (name, start, end, parent, tid, phase) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path


class _Span:
    __slots__ = ("recorder", "name", "phase", "start", "parent", "id", "seconds")

    def __init__(self, recorder: SpanRecorder, name: str, phase: str):
        self.recorder = recorder
        self.name = name
        self.phase = phase
        self.id: int | None = None
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        recorder = self.recorder
        if recorder.enabled:
            local = recorder._local
            if not hasattr(local, "stack"):
                local.stack = []
            self.parent = local.stack[-1] if local.stack else None
            # Reserve the id now so children can name their parent.
            self.id = recorder.add(self.name, 0.0, 0.0, self.parent, self.phase)
            local.stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.seconds = end - self.start
        recorder = self.recorder
        if recorder.enabled:
            recorder._local.stack.pop()
            name, _, _, parent, tid, phase = recorder.spans[self.id]
            recorder.spans[self.id] = (name, self.start, end, parent, tid, phase)
