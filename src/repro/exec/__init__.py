"""repro.exec — the unified kernel-dispatch execution layer.

Every numerical consumer in the stack (the MGD models, the convolution
layer, the out-of-core trainer, the feature store) expresses its work as one
of seven kernels — ``matvec``, ``rmatvec``, ``matmat``, ``rmatmat``,
``scale``, ``to_dense``, ``row_slice`` — and this package owns resolving
each kernel for whatever representation the batch happens to be in: a
:class:`~repro.compression.base.CompressedMatrix` of any registered scheme,
a SciPy sparse matrix, a plain ndarray, or a duck-typed stand-in.

Dispatch lives *only* here.  Callers never probe representations with
``isinstance`` or ``hasattr`` themselves; they call the kernel functions and
the dispatcher picks the implementation.  That single choke point is what
lets per-shard heterogeneous compression (``scheme="auto"``) flow through
training and serving untouched: a TOC shard and a DEN shard of the same
dataset execute through the same seven entry points.

On top of the kernels sits the query layer: :mod:`repro.exec.predicates`
(predicate / aggregate expression objects and their textual parsers) and
:mod:`repro.exec.scan` (predicate push-down scans answered on the
compressed form where the scheme allows it, with a dense fallback
everywhere else).  Neither layer keeps a registry: the kernels resolve in
a fixed order, and a scheme's push-down is methods of its own matrix class.
:meth:`repro.api.Dataset.scan` and the CLI ``scan`` subcommand are thin
shells over :func:`scan_shards`.
"""

from repro.exec.dispatch import (
    KernelSet,
    kernels_for,
    matmat,
    matvec,
    rmatmat,
    rmatvec,
    row_slice,
    scale,
    supports_direct_ops,
    to_dense,
)
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
from repro.exec.scan import ScanResult, scan_matrix, scan_shards

__all__ = [
    "Aggregate",
    "And",
    "Compare",
    "KernelSet",
    "Not",
    "Or",
    "Predicate",
    "ScanResult",
    "kernels_for",
    "matmat",
    "matvec",
    "parse_aggregates",
    "parse_predicate",
    "rmatmat",
    "rmatvec",
    "row_slice",
    "scale",
    "scan_matrix",
    "scan_shards",
    "supports_direct_ops",
    "to_dense",
]
