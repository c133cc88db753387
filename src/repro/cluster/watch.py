"""Manifest-generation watching: re-open after a compact, keep serving.

Shard directories are immutable *between* atomic manifest swaps, and every
swap bumps the manifest's ``generation`` counter
(:func:`repro.engine.shards.read_extent`).  A read-only serving process
therefore needs exactly one background behaviour to survive maintenance: a
poll of that counter, and a store re-open when it moves.  The watcher is a
tiny daemon thread around any zero-argument callback —
:meth:`repro.serve.service.PredictionService.maybe_reopen_store` in
practice — with the poll interval as its only tuning knob.

The watcher is *advisory*: the authoritative safety net is the serving
path's own retry-after-reopen (a request that races the swap and hits a
deleted file re-opens and retries).  Polling merely keeps that race window
to one poll interval and refreshes caches promptly.
"""

from __future__ import annotations

import threading

from repro.obs import metrics as obs_metrics

#: Default seconds between manifest generation polls.
DEFAULT_POLL_SECONDS = 0.5


class GenerationWatcher:
    """Run ``callback()`` every ``poll_seconds`` until :meth:`stop`.

    The callback should return truthy when it actually reloaded something
    (counted in the ``cluster.watch.reloads`` metric); exceptions are
    swallowed and counted (``cluster.watch.errors``) — a transient
    mid-swap read must never kill the watcher.
    """

    def __init__(
        self,
        callback,
        *,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        name: str = "repro-generation-watcher",
    ):
        if poll_seconds <= 0:
            raise ValueError("poll_seconds must be positive")
        self.callback = callback
        self.poll_seconds = poll_seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._m_reloads = obs_metrics.counter("cluster.watch.reloads")
        self._m_errors = obs_metrics.counter("cluster.watch.errors")

    def start(self) -> "GenerationWatcher":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop polling and join the thread (idempotent)."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def poll_now(self) -> bool:
        """One synchronous poll (what the thread runs each tick)."""
        try:
            reloaded = bool(self.callback())
        except Exception:
            self._m_errors.inc()
            return False
        if reloaded:
            self._m_reloads.inc()
        return reloaded

    def _run(self) -> None:
        while not self._stop.wait(self.poll_seconds):
            self.poll_now()


__all__ = ["DEFAULT_POLL_SECONDS", "GenerationWatcher"]
