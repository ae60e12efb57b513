"""The columnar engine: the zero-object site -> coordinator data plane.

:class:`ColumnarEngine` replays a stream in batch windows with no
per-item Python objects on the hot path:

* the stream is consumed as columns (``assignment`` / ``weights`` /
  ``idents`` int64/float64 arrays) — a
  :class:`~repro.stream.columns.ColumnarStream` natively, or a
  :class:`~repro.stream.item.DistributedStream` through its cached
  ``arrays()`` view;
* per window, one O(n) counting sort
  (:func:`~repro.runtime.batched.window_order`) groups arrivals per
  site and **one gather** builds the site-sorted weight/ident columns;
* for weighted SWOR (which residual heavy hitters also run on) each
  window takes the **window step**: when the coordinator's pure check
  (``SworCoordinator.can_park``) says no level can saturate in the
  window, one site pass
  (:meth:`~repro.core.site.SworSite.prepare_window`) splits the window
  into early and regular arrivals once and draws every run's keys on
  window-start state; when the window's regulars also leave the epoch
  unchanged (``SworCoordinator.folds_quietly``), the coordinator folds
  the whole window as **one pack** (all earlies, then all regulars, in
  site order), and otherwise each run's slice of the pass is delivered
  in site order, re-filtered against its site's live threshold;
* a window the check refuses, and every window of the other protocols,
  of ``count_bits`` mode and of a network whose delivery is
  instrumented, takes the per-site loop: each site's bulk hook
  (:meth:`~repro.runtime.interfaces.SiteAlgorithm.on_columns`) returns
  a single :class:`~repro.net.messages.MessagePack` of parallel arrays
  per (site, batch) — word-accounted exactly as the messages it stands
  for — which the coordinator's
  :meth:`~repro.runtime.interfaces.CoordinatorAlgorithm.on_message_pack`
  bulk path re-checks with a boolean mask and folds via one
  ``np.partition`` top-``s`` merge.

Why this is correct
-------------------
Control propagation is deferred to batch boundaries, which only adds
messages the coordinator discards (see :mod:`repro.runtime.batched`).
The coordinator's pack path is bit-compatible with sequential delivery:
a pack that saturates a level or crosses an epoch folds the released
level and the regulars in epoch segments, each ending where sequential
delivery would announce, so every broadcast lands where per-message
delivery puts it (see ``SworCoordinator.on_message_pack``).  Samples
and message counters therefore match a traced run — whose network
keeps the per-site loop and folds every pack message by message — bit
for bit, and at batch size 1 each window holds one arrival, whose site
sends or draws exactly as its scalar ``on_item`` would, so the engine
reproduces :class:`~repro.runtime.reference.ReferenceEngine` exactly.

The window step equals the per-site loop it replaces, and nothing is
ever rewound:

* the saturation check runs before anything is drawn, and only a
  ``LEVEL_SATURATED`` changes how many keys a run draws — an
  ``EPOCH_UPDATE`` only changes which keys it sends;
* each run draws from its own site's generator, as many keys, in the
  same order, as its ``on_columns`` (or, for a single arrival,
  ``on_item``) would, so a split window's runs, re-filtered against the
  live threshold, are exactly the per-site loop's packs;
* in a window folded whole no control lands, so every site computes on
  window-start state: early keys are still drawn in delivery order,
  each level still parks its earlies in arrival order, and ``S`` keeps
  its relative arrival order (only the absolute arrival counters
  differ);
* admission is monotone — per-level counts only grow and the threshold
  only rises — so the window pack takes the coordinator's fast path
  exactly when every per-site pack would.

``Item`` objects are created lazily, only for arrivals that enter the
sample, answer a query, reach a trace, or take a scalar path (a single
arrival) — level sets park columns.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from ..common.errors import ConfigurationError
from ..net.messages import MessagePack
from .base import Engine
from .batched import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_INITIAL_BATCH_SIZE,
    batch_windows,
    window_order,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.counters import MessageCounters
    from .network import Network

__all__ = ["ColumnarEngine"]


def shares_window_pass(sites) -> bool:
    """Whether one window pass can serve every site: all are the same
    algorithm, with a ``prepare_window`` hook, over one shared config
    object (one split of the window then serves every run; see
    :meth:`~repro.core.site.SworSite.prepare_window`)."""
    site0 = sites[0]
    config = getattr(site0, "config", None)
    return (
        hasattr(site0, "prepare_window")
        and config is not None
        and all(
            type(s) is type(site0) and getattr(s, "config", None) is config
            for s in sites
        )
    )


def site_results(runs, idents, weights):
    """The per-site loop: ``(site_id, result)`` of each run's own
    ``on_columns`` over its slice of the site-sorted window columns,
    computed only when the caller asks for it — after the previous
    run's result has been delivered and its controls applied."""
    for site_id, site, start, end in runs:
        yield site_id, site.on_columns(idents[start:end], weights[start:end])


class ColumnarEngine(Engine):
    """Batched schedule, columnar data plane.

    Accepts both :class:`~repro.stream.item.DistributedStream` and
    :class:`~repro.stream.columns.ColumnarStream` (anything exposing
    the ``arrays() -> (assignment, weights, idents)`` triple).

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

    ``last_run_stats`` counts the windows of the last run by path:
    ``windows_whole`` (folded as one pack), ``windows_split`` (split on
    an epoch advance) and ``windows_per_site`` (left to the per-site
    loop); they sum to ``windows``.
    """

    name = "columnar"

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
        return f"{type(self).__name__}(batch_size={self.batch_size})"

    def run(
        self,
        network: "Network",
        stream,
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "MessageCounters":
        assignment, weights, idents = stream.arrays()
        n = len(stream)
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
        sites = network.sites
        coordinator = network.coordinator
        deliver_pack = network.deliver_pack
        deliver_upstream = network.deliver_upstream
        # The window step needs a coordinator with its pure checks and
        # a network whose delivery no observer wraps.
        can_park = getattr(coordinator, "can_park", None)
        step = (
            can_park is not None
            and shares_window_pass(sites)
            and not network.delivery_instrumented()
        )
        t0 = time.perf_counter()
        windows = whole = split = 0
        for lo, hi in batch_windows(
            n, self.batch_size, self.initial_batch_size, marks
        ):
            windows += 1
            positions, site_ids, run_starts, run_ends = window_order(
                assignment, lo, hi
            )
            weights_sorted = weights[positions]
            idents_sorted = idents[positions]
            runs = [
                (site_id, sites[site_id], start, end)
                for site_id, start, end in zip(site_ids, run_starts, run_ends)
            ]
            window_prep = (
                sites[0].prepare_window(weights_sorted, runs, can_park)
                if step
                else None
            )
            if window_prep is not None:
                pack = window_prep.window_pack(idents_sorted, weights_sorted)
                if coordinator.folds_quietly(pack.regular_keys):
                    # One fold for the window (the SWOR fold does not
                    # read the sender's id).
                    whole += 1
                    results = [(site_ids[0], pack)]
                else:
                    split += 1
                    results = window_prep.run_results(pack, runs)
            else:
                results = site_results(runs, idents_sorted, weights_sorted)
            for site_id, result in results:
                if isinstance(result, MessagePack):
                    deliver_pack(site_id, result)
                else:
                    for message in result:
                        deliver_upstream(site_id, message)
            network.items_processed += hi - lo
            t = network.items_processed
            if on_step is not None:
                on_step(t)
            if hi in mark_set:
                on_checkpoint(t)
        self._record_run(network, n, time.perf_counter() - t0, windows=windows)
        self.last_run_stats.update(
            windows_whole=whole,
            windows_split=split,
            windows_per_site=windows - whole - split,
        )
        return network.counters

    def format_stats(self) -> str:
        """The base rendering plus the window step's counts."""
        line = super().format_stats()
        stats = self.last_run_stats
        if "windows_whole" in stats:
            line += (
                f"\n  window step: {stats['windows_whole']} folded whole, "
                f"{stats['windows_split']} split on an epoch advance, "
                f"{stats['windows_per_site']} per site"
            )
        return line
