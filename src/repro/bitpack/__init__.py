"""Physical-encoding substrate: byte-width bit packing and value indexing.

These are the low-level codecs used by TOC's physical encoding layer
(Section 3.2 of the paper) and by the DVI/CVI comparison schemes.
"""

from repro.bitpack.bitpacking import (
    PackedIntArray,
    bytes_per_integer,
    pack_integers,
    unpack_integers,
)
from repro.bitpack.value_index import ValueIndex, build_value_index

__all__ = [
    "PackedIntArray",
    "ValueIndex",
    "build_value_index",
    "bytes_per_integer",
    "pack_integers",
    "unpack_integers",
]
