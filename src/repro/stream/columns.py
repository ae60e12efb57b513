"""Columnar (structure-of-arrays) streams — the zero-object substrate.

:class:`~repro.stream.item.DistributedStream` stores one ``Item``
NamedTuple per arrival; at million-item scale the Python objects cost
~5x the memory of the raw values and force every consumer through
per-object interpreter dispatch.  :class:`ColumnarStream` stores the
same global order as three parallel numpy columns —

* ``idents``  (int64)   — the item identifiers ``e``;
* ``weights`` (float64) — the positive weights ``w``;
* ``sites``   (int64)   — the per-arrival site assignment;
* ``timestamps`` (float64, optional) — non-decreasing per-arrival
  timestamps, consumed by the sliding-window columnar path;

— and materializes :class:`~repro.stream.item.Item` objects *lazily*,
only for the (few) arrivals that actually enter a sample, a level set,
or a trace.  Streams are built either by converting an existing
``DistributedStream`` (:meth:`ColumnarStream.from_distributed`) or by
**chunked generation** (:meth:`ColumnarStream.generate`,
:func:`columnar_zipf_stream`): the columns are filled window by window,
so no intermediate ``Item`` list ever exists — construction peaks at
24 bytes/item plus one chunk, versus the 100+ bytes/item of a
materialized ``Item`` list.

A ``ColumnarStream`` is duck-compatible with the engine-facing surface
of ``DistributedStream`` (``len`` / ``num_sites`` / ``arrays()`` /
``assignment`` / ``items`` / ``iter_batches`` / iteration), where
``items`` is a lazy sequence view, so every runtime engine — not just
:class:`~repro.runtime.columnar.ColumnarEngine` — can replay one.

Identifiers must be int64-representable (the same requirement as the
columnar engines' view of a ``DistributedStream``).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from ..common.errors import ConfigurationError
from .item import DistributedStream, Item, check_weight_column

__all__ = [
    "ColumnarStream",
    "ItemColumnView",
    "ShardSliceView",
    "columnar_zipf_stream",
]

#: Default generation chunk: 64k arrivals (~1.5 MB of column data).
DEFAULT_CHUNK_SIZE = 65536


class ItemColumnView(Sequence):
    """A lazy ``Sequence[Item]`` over a stream's columns.

    Supports integer indexing (negative included) and slices; an
    ``Item`` is constructed only at access time, never stored.  This is
    what lets ``stream.items`` lookups (the reference engine's replay)
    work on a :class:`ColumnarStream` without materializing the stream.
    """

    __slots__ = ("_idents", "_weights")

    def __init__(self, idents, weights) -> None:
        self._idents = idents
        self._weights = weights

    def __len__(self) -> int:
        return len(self._idents)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                Item(int(e), float(w))
                for e, w in zip(self._idents[index], self._weights[index])
            ]
        return Item(int(self._idents[index]), float(self._weights[index]))

    def __iter__(self) -> Iterator[Item]:
        idents = self._idents
        weights = self._weights
        return (Item(int(idents[i]), float(weights[i])) for i in range(len(idents)))


class ShardSliceView:
    """One contiguous site shard's rows of a columnar stream, compacted.

    The multiprocess sharded engine partitions sites into contiguous
    ranges ``[site_lo, site_hi)`` and hands each worker process only its
    shard's arrivals.  A ``ShardSliceView`` holds those rows as four
    parallel columns — ``positions`` (the rows' global arrival indices,
    strictly increasing), ``sites``, ``weights``, and ``idents`` — so a
    worker can answer the two questions the engine's window loop asks
    without ever touching the full stream:

    * :meth:`window_bounds` — which shard rows fall in the global
      window ``[lo, hi)`` (one ``searchsorted`` against ``positions``);
    * :meth:`window_order` — the window's shard rows grouped per site
      with each site's arrivals in **global** order, via the engines'
      shared grouping :func:`repro.runtime.batched.window_order`.

    Because ``positions`` is increasing and the grouping keeps each
    site's rows in order, each site's per-window ident/weight slices
    are *bitwise identical* to the slices
    :class:`~repro.runtime.columnar.ColumnarEngine` would hand that
    site — which is what makes shard-parallel site passes
    reproducible down to the RNG draw.
    """

    __slots__ = ("positions", "sites", "weights", "idents", "site_lo", "site_hi")

    def __init__(self, positions, sites, weights, idents, site_lo, site_hi):
        if not site_lo <= site_hi:
            raise ConfigurationError(
                f"invalid shard range [{site_lo}, {site_hi})"
            )
        self.positions = _np.ascontiguousarray(positions, dtype=_np.int64)
        self.sites = _np.ascontiguousarray(sites, dtype=_np.int64)
        self.weights = _np.ascontiguousarray(weights, dtype=_np.float64)
        self.idents = _np.ascontiguousarray(idents, dtype=_np.int64)
        if not (
            len(self.positions)
            == len(self.sites)
            == len(self.weights)
            == len(self.idents)
        ):
            raise ConfigurationError("shard column lengths disagree")
        self.site_lo = int(site_lo)
        self.site_hi = int(site_hi)

    @staticmethod
    def shard_range(num_sites: int, num_shards: int, index: int) -> Tuple[int, int]:
        """Contiguous site range ``[lo, hi)`` of shard ``index`` — the
        single partition formula, shared by
        :meth:`ColumnarStream.shard_views` and the sharded engine's
        worker dispatch (so the two can never drift apart)."""
        return (
            index * num_sites // num_shards,
            (index + 1) * num_sites // num_shards,
        )

    @classmethod
    def from_columns(cls, assignment, weights, idents, site_lo, site_hi):
        """Compact the rows of sites ``[site_lo, site_hi)`` out of full
        stream columns (``assignment`` / ``weights`` / ``idents`` in
        global arrival order, as from ``stream.arrays()``)."""
        assignment = _np.asarray(assignment)
        mask = (assignment >= site_lo) & (assignment < site_hi)
        positions = _np.flatnonzero(mask)
        return cls(
            positions,
            assignment[positions],
            _np.asarray(weights)[positions],
            _np.asarray(idents)[positions],
            site_lo,
            site_hi,
        )

    def __len__(self) -> int:
        return len(self.positions)

    def window_bounds(self, lo: int, hi: int) -> Tuple[int, int]:
        """Shard-row bracket ``[i0, i1)`` of global window ``[lo, hi)``."""
        i0, i1 = _np.searchsorted(self.positions, (lo, hi), side="left")
        return int(i0), int(i1)

    def window_order(self, i0: int, i1: int):
        """Per-site grouping of shard rows ``[i0, i1)``.

        Returns ``(site_ids, run_starts, run_ends, idents_sorted,
        weights_sorted)`` where ``[run_starts[j], run_ends[j])``
        brackets site ``site_ids[j]``'s slice of the two sorted columns
        — ascending site ids, each site's arrivals in global order
        (the exact slices the columnar engine would gather).
        """
        from ..runtime.batched import window_order

        positions, site_ids, run_starts, run_ends = window_order(
            self.sites, i0, i1
        )
        return (
            site_ids,
            run_starts,
            run_ends,
            self.idents[positions],
            self.weights[positions],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardSliceView(sites=[{self.site_lo}, {self.site_hi}), "
            f"rows={len(self)})"
        )


class ColumnarStream:
    """A globally-ordered distributed stream as three numpy columns.

    Parameters
    ----------
    idents / weights / sites:
        Parallel arrays in global arrival order (coerced to
        int64/float64/int64).  Every weight must lie in
        ``(0, MAX_WEIGHT]`` (:class:`~repro.common.errors.InvalidWeightError`
        otherwise; see :data:`repro.common.rng.MAX_WEIGHT`).
    num_sites:
        The number of sites ``k``; every entry of ``sites`` must lie in
        ``0..k-1``.
    timestamps:
        Optional parallel float64 column of per-arrival timestamps,
        **non-decreasing** in arrival order (a timestamp suffix is then
        an arrival-order suffix, which is what makes timestamp windows
        exact for the sliding-window sampler — see
        :meth:`repro.extensions.SlidingWindowWeightedSWOR.sample_since`).
        ``None`` (the default) means consumers fall back to arrival
        indices.
    """

    def __init__(
        self, idents, weights, sites, num_sites: int, timestamps=None
    ) -> None:
        idents = _np.ascontiguousarray(idents, dtype=_np.int64)
        weights = _np.ascontiguousarray(weights, dtype=_np.float64)
        sites = _np.ascontiguousarray(sites, dtype=_np.int64)
        if not (len(idents) == len(weights) == len(sites)):
            raise ConfigurationError(
                f"column lengths disagree: {len(idents)} idents, "
                f"{len(weights)} weights, {len(sites)} sites"
            )
        if num_sites <= 0:
            raise ConfigurationError(f"num_sites must be positive, got {num_sites}")
        check_weight_column(weights)
        if len(sites) and ((sites < 0) | (sites >= num_sites)).any():
            bad = int(sites[(sites < 0) | (sites >= num_sites)][0])
            raise ConfigurationError(
                f"site index {bad} out of range for k={num_sites}"
            )
        if timestamps is not None:
            timestamps = _np.ascontiguousarray(timestamps, dtype=_np.float64)
            if len(timestamps) != len(weights):
                raise ConfigurationError(
                    f"column lengths disagree: {len(timestamps)} timestamps, "
                    f"{len(weights)} weights"
                )
            if len(timestamps) > 1 and (_np.diff(timestamps) < 0).any():
                raise ConfigurationError(
                    "timestamps must be non-decreasing in arrival order"
                )
        self.idents = idents
        self.weights = weights
        self.sites = sites
        self.num_sites = num_sites
        self.timestamps = timestamps

    # -- construction --------------------------------------------------

    @classmethod
    def from_distributed(cls, stream: DistributedStream) -> "ColumnarStream":
        """Convert an ``Item``-backed stream (values copied exactly;
        raises :class:`~repro.common.errors.ConfigurationError` on
        identifiers that are not int64-representable)."""
        assignment, weights, idents = stream.arrays()
        return cls(idents, weights, assignment, stream.num_sites)

    @classmethod
    def generate(
        cls,
        n: int,
        num_sites: int,
        fill: Callable[[int, "object", "object", "object"], None],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "ColumnarStream":
        """Build a stream by filling columns one chunk at a time.

        ``fill(lo, idents, weights, sites)`` receives the global offset
        of the chunk and *views* of the three columns covering
        ``lo : lo+len(idents)``; it must write every entry.  No ``Item``
        (or any other per-arrival object) is ever created, so peak
        memory is the final columns plus whatever the callback
        allocates per chunk.
        """
        if n < 0:
            raise ConfigurationError(f"stream length must be >= 0, got {n}")
        if chunk_size <= 0:
            raise ConfigurationError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        idents = _np.empty(n, dtype=_np.int64)
        weights = _np.empty(n, dtype=_np.float64)
        sites = _np.empty(n, dtype=_np.int64)
        for lo in range(0, n, chunk_size):
            hi = min(lo + chunk_size, n)
            fill(lo, idents[lo:hi], weights[lo:hi], sites[lo:hi])
        return cls(idents, weights, sites, num_sites)

    def to_distributed(self) -> DistributedStream:
        """Materialize an ``Item``-backed :class:`DistributedStream`.

        The inverse of :meth:`from_distributed` — round-trips exactly
        (int64 idents and float64 weights are preserved bit for bit).
        """
        return DistributedStream(
            list(self.items), self.sites.tolist(), self.num_sites
        )

    # -- DistributedStream-compatible surface --------------------------

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self) -> Iterator[Tuple[int, Item]]:
        """Yield ``(site, item)`` pairs in global arrival order (lazy)."""
        sites = self.sites
        items = self.items
        return ((int(sites[i]), items[i]) for i in range(len(sites)))

    @property
    def items(self) -> ItemColumnView:
        """Lazy ``Sequence[Item]`` view (no materialization)."""
        return ItemColumnView(self.idents, self.weights)

    @property
    def assignment(self):
        """Per-item site indices, aligned with :attr:`items`."""
        return self.sites

    def arrays(self) -> Tuple:
        """``(assignment, weights, idents)`` — already columnar, so this
        is free (mirrors :meth:`DistributedStream.arrays`)."""
        return self.sites, self.weights, self.idents

    def total_weight(self) -> float:
        """The stream's total weight ``W`` (numpy pairwise summation —
        may differ from ``DistributedStream.total_weight``'s sequential
        sum in the last ulp)."""
        return float(self.weights.sum())

    def prefix_weights(self):
        """``W_t`` for every prefix, as a float64 array (cumulative sum)."""
        return _np.cumsum(self.weights)

    def iter_batches(
        self, batch_size: int
    ) -> Iterator[Tuple[List[int], List[Item]]]:
        """Yield ``(sites, items)`` chunk pairs in global arrival order,
        materializing each chunk's Items transiently (API parity with
        :meth:`DistributedStream.iter_batches`)."""
        if batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive, got {batch_size}"
            )
        items = self.items
        for lo in range(0, len(self), batch_size):
            hi = min(lo + batch_size, len(self))
            yield self.sites[lo:hi].tolist(), items[lo:hi]

    def shard_views(self, num_shards: int) -> List[ShardSliceView]:
        """Partition the sites into ``num_shards`` contiguous ranges and
        return one compacted :class:`ShardSliceView` per shard (the
        worker-process view of the multiprocess sharded engine)."""
        if not 1 <= num_shards <= self.num_sites:
            raise ConfigurationError(
                f"num_shards must be in 1..{self.num_sites}, got {num_shards}"
            )
        views = []
        for i in range(num_shards):
            site_lo, site_hi = ShardSliceView.shard_range(
                self.num_sites, num_shards, i
            )
            views.append(
                ShardSliceView.from_columns(
                    self.sites, self.weights, self.idents, site_lo, site_hi
                )
            )
        return views

    def local_streams(self) -> List[List[Item]]:
        """Items per site, each in arrival order (materializes Items)."""
        per_site: List[List[Item]] = [[] for _ in range(self.num_sites)]
        items = self.items
        for i in range(len(self)):
            per_site[int(self.sites[i])].append(items[i])
        return per_site

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarStream(n={len(self)}, k={self.num_sites}, "
            f"bytes={self.idents.nbytes + self.weights.nbytes + self.sites.nbytes})"
        )


def columnar_zipf_stream(
    n: int,
    num_sites: int,
    seed: Optional[int] = None,
    alpha: float = 1.1,
    max_weight: float = 1e6,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ColumnarStream:
    """A round-robin Zipf workload generated straight into columns.

    The same bounded power law as :func:`repro.stream.generators.zipf_stream`
    (``w = min(max_weight, U^{-1/alpha})``, clamped to ``>= 1``) with
    distinct identifiers ``0..n-1`` and round-robin site assignment,
    drawn from a numpy PCG64 generator — chunked, so a billion-item
    stream never exists as Python objects.  (Distribution-identical to
    ``zipf_stream`` but *not* draw-for-draw identical: the scalar
    generator consumes ``random.Random``; convert with
    :meth:`ColumnarStream.from_distributed` when bit-parity with an
    Item-backed stream matters.)
    """
    if alpha <= 1.0:
        raise ConfigurationError(f"alpha must exceed 1, got {alpha}")
    gen = _np.random.Generator(_np.random.PCG64(seed))
    exponent = -1.0 / alpha

    def fill(lo, idents, weights, sites):
        m = len(idents)
        u = _np.maximum(gen.random(m), 5e-324)
        _np.minimum(u**exponent, max_weight, out=weights)
        _np.maximum(weights, 1.0, out=weights)
        idents[:] = _np.arange(lo, lo + m)
        sites[:] = idents % num_sites

    return ColumnarStream.generate(n, num_sites, fill, chunk_size=chunk_size)
