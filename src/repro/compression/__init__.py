"""The compression schemes the paper compares against, plus TOC's factory.

Every scheme implements the :class:`repro.compression.base.CompressedMatrix`
interface so that the MGD training stack and the benchmark harness can swap
schemes freely:

* ``DEN`` — dense row-major doubles (:mod:`repro.compression.dense`),
* ``CSR`` — compressed sparse row (:mod:`repro.compression.csr`),
* ``CVI`` — CSR with value indexing (:mod:`repro.compression.cvi`),
* ``DVI`` — dense with value indexing (:mod:`repro.compression.dvi`),
* ``CLA`` — simplified compressed linear algebra (:mod:`repro.compression.cla`),
* ``Snappy`` / ``Gzip`` — general-purpose byte compressors over the dense
  serialisation (:mod:`repro.compression.byteblock`),
* ``TOC`` — the paper's scheme (:mod:`repro.compression.toc_scheme`).
"""

from repro.compression.base import CompressedMatrix, CompressionScheme
from repro.compression.byteblock import GzipMatrix, SnappyLikeMatrix
from repro.compression.cla import CLAMatrix
from repro.compression.csr import CSRMatrix
from repro.compression.cvi import CVIMatrix
from repro.compression.dense import DenseMatrix
from repro.compression.dvi import DVIMatrix
from repro.compression.registry import available_schemes, get_scheme
from repro.compression.toc_scheme import TOCScheme

__all__ = [
    "CLAMatrix",
    "CSRMatrix",
    "CVIMatrix",
    "CompressedMatrix",
    "CompressionScheme",
    "DVIMatrix",
    "DenseMatrix",
    "GzipMatrix",
    "SnappyLikeMatrix",
    "TOCScheme",
    "available_schemes",
    "get_scheme",
]
