"""The batched engine: a vectorized fast path with bounded staleness.

Why this is correct
-------------------
The paper's site-side filters are *conservative gates in one direction*:
a site that filters on a stale — hence **smaller** — epoch threshold
``u_i`` only sends *extra* regular messages, and every regular message
is re-checked against the live threshold at the coordinator (Algorithm 2
line 19) before it can enter the sample.  Likewise a site with a stale
saturated-level view only sends *extra* early messages, which the
coordinator folds into the sample itself (generating the key on arrival,
exactly as it would have for a parked item).  Deferring control
propagation (``EPOCH_UPDATE`` / ``LEVEL_SATURATED``) to batch boundaries
therefore inflates the message count by a bounded amount but never
biases the sample distribution: each item's key is still an independent
``w/Exp(1)`` draw, and the coordinator still keeps exactly the top-``s``
keys over released items.

What the engine does per batch
------------------------------
1. slice the stream's (site, weight) arrays for the batch window;
2. group the window's items per site (one O(n) counting sort, see
   :func:`window_order`);
3. hand each site its sub-batch through the bulk hook
   :meth:`~repro.runtime.interfaces.SiteAlgorithm.on_items` (protocol
   sites vectorize key generation; the default loops ``on_item``);
4. flush each site's upstream messages to the coordinator through
   :meth:`~repro.runtime.network.Network.deliver_upstream`; coordinator
   responses (broadcasts) are delivered immediately, which from the
   sites' perspective *is* batch-boundary application — their batch was
   already processed, so new control state takes effect next batch.

Batch sizes ramp up (doubling from ``initial_batch_size`` to
``batch_size``, 16384 by default), which bounds the warm-up staleness: at stream start the
threshold is 0 and no level is saturated, so a huge first batch would
send every item upstream.  Batches additionally split at requested
checkpoints so ``on_checkpoint(t)`` fires at exactly ``t``, with the
coordinator state observationally equivalent to a synchronous run whose
sites lag by at most one batch.

A batch size of 1 reproduces the reference engine bit for bit (same RNG
consumption, same delivery interleaving).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence

try:  # numpy accelerates grouping and key generation; gated, not required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None  # type: ignore[assignment]

from ..common.errors import ConfigurationError
from .base import Engine

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.counters import MessageCounters
    from ..stream.item import DistributedStream, Item
    from .network import Network

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_INITIAL_BATCH_SIZE",
    "ItemBatch",
    "BatchedEngine",
    "batch_windows",
    "window_order",
    "site_runs",
    "site_buckets",
]

#: Steady-state and warm-up batch sizes.  Defined once here; the
#: multi-query driver and the CLI help text reference these so the
#: documented defaults can never desync from the engine's.
DEFAULT_BATCH_SIZE = 16384
DEFAULT_INITIAL_BATCH_SIZE = 64


def batch_windows(n, batch_size, initial_batch_size, marks=()):
    """Yield ``(lo, hi)`` stream windows under the doubling ramp.

    The single source of truth for the batched schedule: sizes ramp
    from ``initial_batch_size`` doubling up to ``batch_size``, and
    windows split so each mark in ``marks`` (stream offsets, exclusive
    upper bounds) lands exactly on a window boundary.  Both
    :class:`BatchedEngine` and the multi-query driver
    (:class:`repro.query.driver.MultiQueryDriver`) iterate this, which
    is what makes their checkpoint-exactness and run-for-run parity
    structural rather than coincidental.
    """
    marks = sorted(marks)
    mark_index = 0
    lo = 0
    size = min(initial_batch_size, batch_size)
    while lo < n:
        hi = min(lo + size, n)
        while mark_index < len(marks) and marks[mark_index] <= lo:
            mark_index += 1
        if mark_index < len(marks) and marks[mark_index] < hi:
            hi = marks[mark_index]  # split so the mark is exact
        yield lo, hi
        lo = hi
        size = min(size * 2, batch_size)


def window_order(sites, lo, hi):
    """Group rows ``[lo, hi)`` of a site column per site, in O(n).

    The single source of truth for how every batching engine groups a
    window — the batched and columnar engines, the sharded workers'
    :meth:`~repro.stream.columns.ShardSliceView.window_order`, and the
    multi-query driver — which is what keeps their grouping, and hence
    their run-for-run RNG parity, structural.

    Returns ``(positions, site_ids, run_starts, run_ends)``:
    ``positions`` holds the window's row indices into ``sites`` by
    ascending site, each site's rows in arrival order, and
    ``positions[run_starts[j]:run_ends[j]]`` are the rows of site
    ``site_ids[j]`` (three Python lists, one entry per site present).

    A counting sort: ``np.bincount`` sizes every site's run, and a
    stable argsort of the column narrowed to the smallest unsigned
    dtype holding every site id scatters the rows — numpy sorts keys of
    at most 16 bits stably by radix, one counting pass per byte.  Only
    more than 65536 sites fall back to a comparison sort.  Either way
    the result equals a stable sort's, so each site sees its arrivals
    in arrival order.  Requires numpy and non-negative site ids.
    """
    window = sites[lo:hi]
    counts = _np.bincount(window)
    narrow = window.astype(_np.min_scalar_type(len(counts) - 1))
    positions = _np.argsort(narrow, kind="stable")
    positions += lo
    site_ids = _np.flatnonzero(counts)
    run_ends = _np.cumsum(counts)[site_ids]
    run_starts = run_ends - counts[site_ids]
    return positions, site_ids.tolist(), run_starts.tolist(), run_ends.tolist()


def site_runs(sites, lo, hi):
    """Yield ``(site_id, positions)`` runs for window ``[lo, hi)`` of
    ``sites``: ascending site ids, ``positions`` the site's row indices
    into ``sites`` in arrival order (see :func:`window_order`).
    Requires numpy."""
    positions, site_ids, run_starts, run_ends = window_order(sites, lo, hi)
    for site_id, start, end in zip(site_ids, run_starts, run_ends):
        yield site_id, positions[start:end]


def site_buckets(assignment, items, lo, hi):
    """Numpy-free counterpart of :func:`site_runs`: yield ascending
    ``(site_id, window_items)`` buckets for one window, each site's
    arrivals in global order.  Shared by the batched engine's and the
    multi-query driver's fallback paths so their per-protocol replay
    order can never drift apart."""
    buckets = {}
    for i in range(lo, hi):
        buckets.setdefault(assignment[i], []).append(items[i])
    for site_id in sorted(buckets):
        yield site_id, buckets[site_id]


class ItemBatch(Sequence):
    """A zero-copy view of one site's share of a batch window.

    Behaves as a ``Sequence[Item]`` (so generic ``on_items``
    implementations can iterate it) while carrying the pre-gathered
    ``weights`` array that vectorized site hooks consume directly —
    sites only touch :class:`~repro.stream.item.Item` objects for the
    (few) items that actually generate messages.  ``idents`` optionally
    carries the aligned identifier column (attached by columnar-mode
    drivers so fused site passes can build
    :class:`~repro.net.messages.MessagePack` columns without touching
    Items).

    Supports the full ``Sequence`` indexing protocol: negative indices
    and slices both work; a slice returns another ``ItemBatch`` view
    with its ``weights`` (and ``idents``) kept aligned.
    """

    __slots__ = ("_source", "_positions", "weights", "idents")

    def __init__(
        self, source: List["Item"], positions, weights, idents=None
    ) -> None:
        self._source = source
        self._positions = positions
        #: Per-item weights aligned with this batch (numpy array).
        self.weights = weights
        #: Optional per-item identifiers aligned with this batch.
        self.idents = idents

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ItemBatch(
                self._source,
                self._positions[index],
                None if self.weights is None else self.weights[index],
                None if self.idents is None else self.idents[index],
            )
        # Integer indexing (negative included) delegates to the
        # positions sequence, which raises IndexError out of range.
        return self._source[self._positions[index]]

    def __iter__(self):
        source = self._source
        return (source[p] for p in self._positions)


class BatchedEngine(Engine):
    """Chunked driver: vectorized sites, per-batch flush, deferred control.

    Parameters
    ----------
    batch_size:
        Steady-state number of global arrivals per batch.  Larger
        batches amortize more interpreter dispatch but let site views go
        staler within a batch (more coordinator-discarded messages).
    initial_batch_size:
        First batch's size; batches double until reaching
        ``batch_size``.  The ramp bounds warm-up staleness while the
        coordinator's threshold is still near zero.
    """

    name = "batched"

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        initial_batch_size: int = DEFAULT_INITIAL_BATCH_SIZE,
    ) -> None:
        if batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive, got {batch_size}"
            )
        if initial_batch_size <= 0:
            raise ConfigurationError(
                f"initial_batch_size must be positive, got {initial_batch_size}"
            )
        self.batch_size = batch_size
        self.initial_batch_size = min(initial_batch_size, batch_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchedEngine(batch_size={self.batch_size})"

    def run(
        self,
        network: "Network",
        stream: "DistributedStream",
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "MessageCounters":
        n = len(stream)
        items = stream.items
        # Checkpoints count cumulative items_processed (matching the
        # reference engine), so a network reused across run() calls
        # keeps one consistent clock; convert to stream offsets here.
        base = network.items_processed
        want_checkpoints = checkpoints is not None and on_checkpoint is not None
        marks: List[int] = (
            [t - base for t in sorted(set(checkpoints)) if base < t <= base + n]
            if want_checkpoints
            else []
        )
        mark_set = set(marks)
        arrays = stream.arrays()
        t0 = time.perf_counter()
        windows = 0
        for lo, hi in batch_windows(
            n, self.batch_size, self.initial_batch_size, marks
        ):
            if arrays is not None:
                self._run_window_numpy(network, items, arrays, lo, hi)
            else:
                self._run_window_python(network, stream, lo, hi)
            windows += 1
            network.items_processed += hi - lo
            t = network.items_processed
            if on_step is not None:
                on_step(t)
            if hi in mark_set:
                on_checkpoint(t)
        self._record_run(network, n, time.perf_counter() - t0, windows=windows)
        return network.counters

    # -- one batch window ----------------------------------------------

    @staticmethod
    def _run_window_numpy(
        network: "Network", items: List["Item"], arrays, lo: int, hi: int
    ) -> None:
        """Group the window per site (:func:`window_order`), then run
        each site's bulk hook on a zero-copy :class:`ItemBatch` view."""
        assignment, weights = arrays[0], arrays[1]
        deliver = network.deliver_upstream
        sites = network.sites
        for site_id, positions in site_runs(assignment, lo, hi):
            batch = ItemBatch(items, positions, weights[positions])
            for message in sites[site_id].on_items(batch):
                deliver(site_id, message)

    @staticmethod
    def _run_window_python(
        network: "Network", stream: "DistributedStream", lo: int, hi: int
    ) -> None:
        """Numpy-free fallback: bucket the window per site in plain
        Python; bulk hooks then fall back to their scalar paths."""
        deliver = network.deliver_upstream
        sites = network.sites
        for site_id, batch in site_buckets(
            stream.assignment, stream.items, lo, hi
        ):
            for message in sites[site_id].on_items(batch):
                deliver(site_id, message)
