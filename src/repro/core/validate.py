"""The one error every decoder raises.

A shard read checks what it must to stay safe as it goes, with no pass of
its own: :func:`repro.core.physical.physical_decode` the block lengths, the
payload's end, the value codes and the first-layer columns;
:class:`~repro.core.logical.LogicalEncoding` the row offsets and the codes'
lower bound; :func:`repro.core.decode_tree.build_decode_tree` the codes'
upper bound and the tree's order (each parent before its child, no code
ahead of its node), before its doubling loop walks a pointer.  Each raises
:class:`EncodingError`, and so do the other schemes' parsers for a header or
a length their payload cannot hold.  The stricter structural validators the
tests check encodings with live beside those tests.
"""

from __future__ import annotations

from repro.bitpack.bitpacking import EncodingError

__all__ = ["EncodingError"]
