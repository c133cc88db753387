"""Fixtures shared by the engine tests."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import encode as encode_module


@pytest.fixture()
def pool_spy(monkeypatch):
    """Two usable CPUs, and a ``ProcessPoolExecutor`` that logs every entry.

    With the affinity reported as two CPUs the fan-out reaches its process
    pool even on a one-CPU machine; the returned list holds one item per
    pool entered, so a test can compare what ran with what was recorded.
    """
    entered: list = []

    class SpyPool(ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(encode_module, "usable_cpus", lambda: 2)
    monkeypatch.setattr(encode_module, "ProcessPoolExecutor", SpyPool)
    return entered
