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
  level indices are computed **once per window** (sites sharing a
  config expose :meth:`~repro.core.site.SworSite.prepare_window`)
  instead of once per (site, window);
* the same hook runs the **window pass**: every early-free run (a
  site's slice with at least 2 arrivals, none in a level still open at
  window start) draws its keys into one window-length column, and the
  runs with no key above the window-start threshold are finished
  there — the engine calls no site hook for them;
* each remaining site's bulk hook
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
it falls back to exact per-message replay for the rare packs that
saturate a level or cross an epoch (see
``SworCoordinator.on_message_pack``).  Samples and message counters
therefore match a traced run — whose network folds every pack message
by message — bit for bit, and at batch size 1 every site takes its
scalar ``on_item`` path, so the engine reproduces
:class:`~repro.runtime.reference.ReferenceEngine` exactly.  The window
pass changes no draw: each run draws from its own site's generator,
as many keys as its ``on_columns`` would, and a control that lands
mid-window can only saturate a level (an early-free run stays
early-free) or raise a threshold (the window-start screen keeps a
superset of the senders, which the live re-filter trims).

``Item`` objects are created lazily, only for arrivals that actually
reach a level set, the sample, a trace, or a scalar fallback — a few
thousand per million-item run.
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
        deliver_pack = network.deliver_pack
        deliver_upstream = network.deliver_upstream
        # Once-per-window precompute sharing: sound whenever every site
        # is the same algorithm over the same shared config object
        # (levels and the saturation lookup are pure functions of
        # weight, config, and the broadcast-synchronized mask — and
        # each site still verifies the mask; see
        # ``SworSite.prepare_window``).  The hook also runs the window
        # pass and returns the runs still to call.
        site0 = sites[0]
        cls0, cfg0 = type(site0), getattr(site0, "config", None)
        share_prep = (
            hasattr(site0, "prepare_window")
            and cfg0 is not None
            and all(
                type(s) is cls0 and getattr(s, "config", None) is cfg0
                for s in sites
            )
        )
        t0 = time.perf_counter()
        windows = 0
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
                site0.prepare_window(weights_sorted, runs) if share_prep else None
            )
            if window_prep is not None:
                runs = window_prep.runs
            for site_id, site, start, end in runs:
                result = site.on_columns(
                    idents_sorted[start:end],
                    weights_sorted[start:end],
                    prep=(
                        None if window_prep is None
                        else (window_prep, start, end)
                    ),
                )
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
        return network.counters
