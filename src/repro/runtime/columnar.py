"""The columnar engine: a zero-object site -> coordinator fast path.

:class:`~repro.runtime.batched.BatchedEngine` vectorized site-side *key
generation* but kept the object model at the message boundary: every
arrival is still gathered through an ``Item``-backed view, every
upstream candidate is its own :class:`~repro.net.messages.Message`, and
the coordinator folds candidates one ``heapreplace`` at a time.
:class:`ColumnarEngine` removes the remaining per-item Python objects
end to end:

* the stream is consumed as columns (``assignment`` / ``weights`` /
  ``idents`` int64/float64 arrays) — a
  :class:`~repro.stream.columns.ColumnarStream` natively, or a
  :class:`~repro.stream.item.DistributedStream` through its cached
  ``arrays()`` view;
* per window, one O(n) counting sort
  (:func:`~repro.runtime.batched.window_order`) groups arrivals per
  site and **one gather** builds the site-sorted weight/ident columns;
  level indices are computed **once per window** (sites sharing a
  config expose :meth:`~repro.core.site.SworSite.window_levels`)
  instead of once per (site, window);
* each site's bulk hook
  (:meth:`~repro.runtime.interfaces.SiteAlgorithm.on_columns`) returns
  a single :class:`~repro.net.messages.MessagePack` of parallel arrays
  per (site, batch) — word-accounted exactly as the messages it stands
  for — which the coordinator's
  :meth:`~repro.runtime.interfaces.CoordinatorAlgorithm.on_message_pack`
  bulk path re-checks with a boolean mask and folds via one
  ``np.partition`` top-``s`` merge.

Why this is correct
-------------------
The window schedule, per-site grouping, and per-site RNG consumption
are *identical* to the batched engine's (same
:func:`~repro.runtime.batched.batch_windows`, same grouping, same
``BatchRandom`` draw counts in the same order), and the coordinator's
pack path is bit-compatible with sequential delivery (it falls back to
exact per-message replay for the rare packs that saturate a level or
cross an epoch — see ``SworCoordinator.on_message_pack``).  Samples and
message counters therefore match the batched engine **bit for bit**;
``benchmarks/bench_columnar.py`` pins this at the million-item scale.

``Item`` objects are created lazily, only for arrivals that actually
reach a level set, the sample, a trace, or a scalar fallback — a few
thousand per million-item run.

Falls back to :class:`BatchedEngine` behavior wholesale when numpy (or
an int64 ident column) is unavailable, so the scalar path stays the
single numpy-free source of truth.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

try:  # the fast path is numpy-only; gated, not required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None  # type: ignore[assignment]

from ..kernels import get_kernels, use_kernels
from ..net.messages import MessagePack
from .batched import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_INITIAL_BATCH_SIZE,
    BatchedEngine,
    batch_windows,
    window_order,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.counters import MessageCounters
    from .network import Network

__all__ = ["ColumnarEngine"]


class ColumnarEngine(BatchedEngine):
    """Batched schedule, columnar data plane.

    Accepts both :class:`~repro.stream.item.DistributedStream` and
    :class:`~repro.stream.columns.ColumnarStream` (anything exposing
    the ``arrays() -> (assignment, weights, idents)`` triple plus the
    ``items`` sequence for scalar fallbacks).  Construction parameters
    are the batched engine's (``batch_size`` ramping up from
    ``initial_batch_size``) — the schedules must coincide for the
    bit-parity contract to be structural.
    """

    name = "columnar"

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        initial_batch_size: int = DEFAULT_INITIAL_BATCH_SIZE,
        kernels=None,
    ) -> None:
        super().__init__(
            batch_size=batch_size, initial_batch_size=initial_batch_size
        )
        #: Kernel-backend override for this engine's runs (``None`` =
        #: the process default, i.e. ``REPRO_KERNELS`` / ``"auto"``).
        #: Resolved eagerly so a bad spec fails at construction.
        self._kernels = None if kernels is None else get_kernels(kernels)

    def run(
        self,
        network: "Network",
        stream,
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "MessageCounters":
        with use_kernels(self._kernels) as kernels:
            counters = self._run_columnar(
                network,
                stream,
                on_step=on_step,
                checkpoints=checkpoints,
                on_checkpoint=on_checkpoint,
            )
        if self.last_run_stats:
            self.last_run_stats.setdefault("kernels", kernels.name)
        return counters

    def _run_columnar(
        self,
        network: "Network",
        stream,
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "MessageCounters":
        arrays = stream.arrays() if hasattr(stream, "arrays") else None
        if _np is None or arrays is None or arrays[2] is None:
            # Numpy-free installs (or exotic ident types): the batched
            # engine's object path is the fallback semantics.
            return BatchedEngine.run(
                self,
                network,
                stream,
                on_step=on_step,
                checkpoints=checkpoints,
                on_checkpoint=on_checkpoint,
            )
        assignment, weights, idents = arrays
        n = len(stream)
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
        # ``SworSite.prepare_window``).
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
            window_prep = (
                site0.prepare_window(weights_sorted) if share_prep else None
            )
            for site_id, start, end in zip(site_ids, run_starts, run_ends):
                result = sites[site_id].on_columns(
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
