"""Row lookups over a sharded dataset, straight from the mapped shard files.

The training engine reads whole shards; serving needs individual rows.  The
feature store maps global row ids onto (shard, local row) with the manifest
row counts — :meth:`FeatureStore.locate` for one id,
:meth:`FeatureStore.locate_rows` for a whole request in one vectorised,
range-checked step — maps each shard file on first touch
(:meth:`repro.engine.shards.Dataset.map_payload`), and resolves the decoder
*per shard* from the manifest (so mixed-scheme directories serve exactly like
uniform ones).

It hands a shard out in two ways.  :meth:`FeatureStore.parsed` is the shard
in its sliceable form, still compressed: what ``PredictionService`` scores
*as stored* with the paper's Section 4 kernels, one ``A·v`` for every row of
the shard — for a linear model that is how the service's score array is
filled (such a shard is never densified).  :meth:`FeatureStore.get_rows` is
for callers that want the features themselves — direct readers, and a
network's fill of the rows it has not scored yet: it decodes **only the
requested rows** with the shard's own ``row_slice`` — an array slice for
DEN shards, a gather of the rows' stored cells for CSR/CVI, a walk of the
rows' codes through the decode tree for TOC — never the whole dense block.
Rows the service answers out of its score array are reported through
:meth:`FeatureStore.count_hit` and :meth:`FeatureStore.count_scored`.

The store's one cache (predictions live in the service's score array) is
the *parsed* LRU of :data:`PARSED_CACHE_SHARDS`
shards in sliceable form, so consecutive reads of the same shard skip the
expensive part: for direct-op schemes that is the parsed
``CompressedMatrix`` (still compressed); for byte-block schemes
(Gzip/Snappy), whose only row path is a full inflate, it is the inflated
block as a DEN matrix, since re-inflating per read would be strictly worse.
Either form is a ``CompressedMatrix``: it row-slices and multiplies through
its own methods.

The shard mappings are not a cache — they copy nothing, the pages belong to
the OS page cache — but they are kept: a shard is mapped at most once, and
the mapping lives as long as the store.  That pins the store to the files of
the generation it first read, so a writer that publishes a new file under an
old name (``os.replace``) never changes the rows an open store serves.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from repro.compression.dense import DenseMatrix
from repro.engine.shards import (
    Dataset,
    as_row_id,
    group_by_shard,
    locate_rows,
    row_out_of_range,
    shard_offsets,
)
from repro.obs.metrics import ticks
from repro.serve.lru import LRUCache

#: Parsed shards a store keeps.  Requests are answered from the service's
#: score array and touch this only to fill it: a linear model scores a
#: parsed shard whole, a network row-slices out of it.
PARSED_CACHE_SHARDS = 8


@dataclass
class FeatureStoreStats:
    """Counters accumulated by a :class:`FeatureStore`.

    Every row the service answers out of this store is counted once: a row
    scored for its request is a ``row_miss``, bulk or not; an already
    scored row of a single-row request is a ``row_hit``, and of a bulk
    request ``serve.store.rows_gathered``, which the service alone keeps
    (as it does the shards it scores whole).  A row :meth:`FeatureStore.get_rows`
    decodes is a miss too.  So single-row traffic asks exactly
    ``row_hits + row_misses`` rows of the store.
    """

    lookups: int = 0
    row_hits: int = 0
    row_misses: int = 0
    shard_decodes: int = 0
    payload_parses: int = 0

    @property
    def row_accesses(self) -> int:
        return self.row_hits + self.row_misses

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.row_accesses if self.row_accesses else 0.0


class FeatureStore:
    """Point and bulk row access over a :class:`~repro.engine.shards.Dataset`.

    Parameters
    ----------
    dataset:
        An open shard directory (:meth:`repro.engine.shards.Dataset.open`).
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        #: LRU of parsed ``CompressedMatrix`` objects keyed by batch id.
        self._parsed: LRUCache = LRUCache(PARSED_CACHE_SHARDS)
        #: Each shard's mapping, taken on first touch and kept (see the module docstring).
        self._mapped: list[memoryview | None] = [None] * len(dataset.shards)
        self._stats = FeatureStoreStats()
        # Single-row hits on the service's lock-free path: one tick each.
        self._hit_ticks = itertools.count()
        # Guards stats and the mapping table: the store is shared between
        # client threads (bulk API) and the batcher worker.
        self._lock = threading.Lock()
        # offsets[i] = global row id of the first row of shard i; offsets[-1] = n_rows.
        self._offsets = shard_offsets(dataset.shards)
        self._offset_list: list[int] = self._offsets.tolist()  # what the scalar `locate` bisects
        self._n_rows = self._offset_list[-1]

    @property
    def stats(self) -> FeatureStoreStats:
        """A copy of the store's counters, the lock-free hits included."""
        return replace(self._stats, row_hits=self._stats.row_hits + ticks(self._hit_ticks))

    @classmethod
    def open(cls, directory) -> "FeatureStore":
        """Open a shard directory and build a store over it."""
        return cls(Dataset.open(directory))

    # -- geometry -------------------------------------------------------------

    def __len__(self) -> int:
        return self._n_rows

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_cols(self) -> int:
        return self.dataset.shards[0].n_cols if self.dataset.shards else 0

    def locate(self, row_id: int) -> tuple[int, int]:
        """Map a global row id to ``(batch_id, local_row)``."""
        row_id = as_row_id(row_id)
        if not 0 <= row_id < self._n_rows:
            raise row_out_of_range(row_id, self._n_rows)
        batch_id = bisect_right(self._offset_list, row_id) - 1
        return batch_id, row_id - self._offset_list[batch_id]

    def locate_rows(self, row_ids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`locate` for a whole request at once: ``(batch_ids, local_rows)`` arrays.

        Raises ``IndexError`` for an id outside ``[0, n_rows)`` before any
        shard is read.
        """
        return locate_rows(self._offsets, row_ids)

    @property
    def n_shards(self) -> int:
        return len(self.dataset.shards)

    def row_span(self, batch_id: int) -> tuple[int, int]:
        """Shard ``batch_id``'s rows as ``(first global row id, one past the last)``."""
        return self._offset_list[batch_id], self._offset_list[batch_id + 1]

    def shard_rows(self, batch_id: int) -> int:
        """How many rows shard ``batch_id`` holds."""
        return self._offset_list[batch_id + 1] - self._offset_list[batch_id]

    # -- decode ---------------------------------------------------------------

    def parsed(self, batch_id: int):
        """Shard ``batch_id`` in its sliceable form, through the parsed LRU.

        For direct-op schemes that is the parsed ``CompressedMatrix``, whose
        ``row_slice`` and multiplication kernels run without decoding it;
        for byte-block schemes, the inflated block as a
        :class:`~repro.compression.dense.DenseMatrix`.  A racing miss parses
        twice and last-write-wins.
        """
        sliceable = self._parsed.get(batch_id)
        if sliceable is None:
            with self._lock:
                self._stats.payload_parses += 1
                payload = self._mapped[batch_id]
                if payload is None:  # first touch: map the file, and keep the mapping
                    payload = self._mapped[batch_id] = self.dataset.map_payload(batch_id)
            sliceable = self.dataset.decode(batch_id, payload)
            if not sliceable.supports_direct_ops:
                # Byte-block schemes can only row-slice via a full inflate;
                # cache the inflated block so later reads don't re-inflate it.
                sliceable = DenseMatrix(sliceable.to_dense())
            self._parsed.put(batch_id, sliceable)
        return sliceable

    def count_hit(self) -> None:
        """Count one single-row request answered out of the service's score array, lock-free."""
        next(self._hit_ticks)

    def count_scored(self, *, hits: int = 0, misses: int = 0) -> None:
        """Count the rows of a single-row batch answered from scores: a row
        whose score had to be computed for the request is a miss, one
        already filled a hit."""
        with self._lock:
            self._stats.row_hits += hits
            self._stats.row_misses += misses

    # -- row access -----------------------------------------------------------

    def get_row(self, row_id: int) -> np.ndarray:
        """One feature row (a copy, safe to mutate)."""
        return self.get_rows([row_id])[0]

    def get_rows(self, row_ids: Iterable[int]) -> np.ndarray:
        """Many rows as one dense matrix, touching each shard at most once.

        Rows come back in request order; duplicate ids are allowed (a cache
        serving repeat traffic produces them naturally).  Every id is
        located, so range-checked, before any shard is read; the rows of each
        touched shard are decoded with one ``row_slice`` call on its
        compressed form, and each counts as a ``row_miss``.  A request is a
        few ids, so they are located one by one and grouped in a dict, which
        costs less than the vectorised ``locate_rows`` + ``group_by_shard``
        for anything this short.
        """
        ids = list(row_ids)
        by_shard: dict[int, tuple[list[int], list[int]]] = {}
        for position, row_id in enumerate(ids):
            batch_id, local_row = self.locate(row_id)
            positions, local_rows = by_shard.setdefault(batch_id, ([], []))
            positions.append(position)
            local_rows.append(local_row)
        with self._lock:
            self._stats.lookups += 1
            self._stats.row_misses += len(ids)
            self._stats.shard_decodes += len(by_shard)
        out = np.empty((len(ids), self.n_cols), dtype=np.float64)
        for batch_id, (positions, local_rows) in by_shard.items():
            out[positions] = self.parsed(batch_id).row_slice(local_rows)
        return out

    def get_labels(self, row_ids: Iterable[int]) -> np.ndarray:
        """Stored labels for the given rows (ground truth for evaluation)."""
        batch_ids, local_rows = self.locate_rows(row_ids)
        labels = None
        for batch_id, positions in group_by_shard(batch_ids):
            shard_labels = self.dataset.labels_for(batch_id)
            if labels is None:
                labels = np.empty(batch_ids.size, dtype=shard_labels.dtype)
            labels[positions] = shard_labels[local_rows[positions]]
        return labels if labels is not None else np.empty(0)
