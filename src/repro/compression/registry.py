"""Registry mapping scheme names to their matrix classes.

The benchmark harness, the examples, and the storage layer all look up
schemes by the names the paper uses in its tables and figures:
``DEN``, ``CSR``, ``CVI``, ``DVI``, ``CLA``, ``Snappy``, ``Gzip``, ``TOC``,
plus the ablation variants ``TOC_SPARSE`` and ``TOC_SPARSE_AND_LOGICAL``
(and ``TOC_FULL``, another name for ``TOC``).  Each name maps to a
:class:`~repro.compression.base.CompressedMatrix` subclass, whose
``compress`` and ``decompress_bytes`` classmethods are the scheme.
"""

from __future__ import annotations

from repro.compression.base import CompressedMatrix
from repro.compression.byteblock import GzipMatrix, SnappyLikeMatrix
from repro.compression.cla import CLAMatrix
from repro.compression.csr import CSRMatrix
from repro.compression.cvi import CVIMatrix
from repro.compression.dense import DenseMatrix
from repro.compression.dvi import DVIMatrix
from repro.core.toc import TOCMatrix, TOCSparseAndLogicalMatrix, TOCSparseMatrix

_SCHEMES: dict[str, type[CompressedMatrix]] = {
    cls.scheme_name: cls
    for cls in (
        DenseMatrix, CSRMatrix, CVIMatrix, DVIMatrix, CLAMatrix, SnappyLikeMatrix,
        GzipMatrix, TOCMatrix, TOCSparseMatrix, TOCSparseAndLogicalMatrix,
    )
}
_SCHEMES["TOC_FULL"] = TOCMatrix


def available_schemes(include_ablations: bool = False) -> list[str]:
    """Names of all registered schemes, in the order the paper's figures use."""
    names = ["DEN", "CSR", "CVI", "DVI", "CLA", "Snappy", "Gzip", "TOC"]
    if include_ablations:
        names += ["TOC_SPARSE", "TOC_SPARSE_AND_LOGICAL"]
    return names


def get_scheme(name: str) -> type[CompressedMatrix]:
    """The matrix class of the scheme with this paper name.

    Raises ``KeyError`` with the list of valid names on an unknown scheme.
    """
    try:
        return _SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"unknown compression scheme {name!r}; valid names: "
            f"{available_schemes(include_ablations=True)}"
        ) from None
