"""Run provenance only: the kernels are each scheme's own methods.

Kept for ``bench/run.py``, which records :func:`active_backend` in every
result, until ROADMAP item 1(d).
"""


def active_backend() -> str:
    """The kernel implementation every call runs, for run provenance."""
    return "numpy"
