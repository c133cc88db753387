"""repro.exec — the query layer over compressed shards.

:mod:`repro.exec.predicates` holds the predicate / aggregate expression
objects and their textual parsers; :mod:`repro.exec.scan` runs predicate
push-down scans, answered on the compressed form where the scheme allows
it, with a dense fallback everywhere else.  Neither keeps a registry: a
scheme's push-down is methods of its own matrix class.
:meth:`repro.api.Dataset.scan` and the CLI ``scan`` subcommand are thin
shells over :func:`scan_shards`.

The matrix kernels are not here: they are the methods of each scheme's
:class:`~repro.compression.base.CompressedMatrix` (``matvec``, ``rmatvec``,
``matmat``, ``rmatmat``, ``scale``, ``to_dense``, ``row_slice``), and the
four products are also its ``@``.
"""

from repro.exec.predicates import (
    Aggregate,
    And,
    Compare,
    Not,
    Or,
    Predicate,
    parse_aggregates,
    parse_predicate,
)
from repro.exec.scan import ScanResult, scan_shards


# Kept for ``bench/layers.py``, which calls the kernels as functions, until
# ROADMAP item 1(d); nothing under ``src/`` calls them.
def matvec(matrix, vector):
    return matrix.matvec(vector)


def rmatvec(matrix, vector):
    return matrix.rmatvec(vector)


def matmat(matrix, other):
    return matrix.matmat(other)


def rmatmat(matrix, other):
    return matrix.rmatmat(other)


def row_slice(matrix, rows):
    return matrix.row_slice(rows)


__all__ = [
    "Aggregate",
    "And",
    "Compare",
    "Not",
    "Or",
    "Predicate",
    "ScanResult",
    "parse_aggregates",
    "parse_predicate",
    "scan_shards",
]
