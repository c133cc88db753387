"""The compression schemes the paper compares, TOC's included.

Every scheme is a :class:`repro.compression.base.CompressedMatrix` subclass
(:func:`get_scheme` maps a name to it), so the MGD training stack and the
benchmark harness can swap schemes freely:

* ``DEN`` — dense row-major doubles (:mod:`repro.compression.dense`),
* ``CSR`` — compressed sparse row (:mod:`repro.compression.csr`),
* ``CVI`` — CSR with value indexing (:mod:`repro.compression.cvi`),
* ``DVI`` — dense with value indexing (:mod:`repro.compression.dvi`),
* ``CLA`` — simplified compressed linear algebra (:mod:`repro.compression.cla`),
* ``Snappy`` / ``Gzip`` — general-purpose byte compressors over the dense
  serialisation (:mod:`repro.compression.byteblock`),
* ``TOC`` — the paper's scheme (:class:`repro.core.toc.TOCMatrix`).
"""

from repro.compression.base import CompressedMatrix
from repro.compression.byteblock import GzipMatrix, SnappyLikeMatrix
from repro.compression.cla import CLAMatrix
from repro.compression.csr import CSRMatrix
from repro.compression.cvi import CVIMatrix
from repro.compression.dense import DenseMatrix
from repro.compression.dvi import DVIMatrix
from repro.compression.registry import available_schemes, get_scheme

__all__ = [
    "CLAMatrix",
    "CSRMatrix",
    "CVIMatrix",
    "CompressedMatrix",
    "DVIMatrix",
    "DenseMatrix",
    "GzipMatrix",
    "SnappyLikeMatrix",
    "available_schemes",
    "get_scheme",
]
