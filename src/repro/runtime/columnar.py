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
  site and **one gather** builds the site-sorted weight/ident columns
  (:func:`group_window`): a :class:`GroupedWindow`, which
  :func:`run_window` — the window body,
  shared with the multi-query driver, which runs it once per query
  network over one grouped window — delivers to a network;
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
  instrumented, takes the per-site loop (:func:`site_results`): each
  site's bulk hook
  (:meth:`~repro.runtime.interfaces.SiteAlgorithm.on_columns`) returns
  a single :class:`~repro.net.messages.MessagePack` of parallel arrays
  per (site, batch) — word-accounted exactly as the messages it stands
  for — which the coordinator's
  :meth:`~repro.runtime.interfaces.CoordinatorAlgorithm.on_message_pack`
  bulk path re-checks with a boolean mask and folds via one
  ``np.partition`` top-``s`` merge; a run of one arrival goes to
  ``on_item``;
* the level split of the window and of each run of a refused window is
  a pure function of the weights, ``r`` and the saturated mask, so the
  grouped window memoizes it (:meth:`GroupedWindow.split`): same-config
  SWOR networks fed the same window split it once.

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
* each run fills its slice of the window's draw column from its own
  site's one generator, and a fill of ``n`` entries draws the variates
  ``n`` scalar draws would: the keys its ``on_columns`` (or, for a
  single arrival, ``on_item``) would draw, so a split window's runs,
  re-filtered against the live threshold, are exactly the per-site
  loop's packs;
* in a window folded whole no control lands, so every site computes on
  window-start state: early keys are still drawn in delivery order,
  each level still parks its earlies in arrival order, and ``S`` keeps
  its relative arrival order (only the absolute arrival counters
  differ);
* admission is monotone — per-level counts only grow and the threshold
  only rises — so the window pack takes the coordinator's fast path
  exactly when every per-site pack would.

The split memo changes nothing either: its key — run bounds, ``r`` and
the mask — determines the split, and what it shares between networks
(levels, the saturated mask, early positions) is only ever read.  A
network's draws, thresholds and folds stay its own, so a query network
run by the multi-query driver ends in the state of a standalone run.

``Item`` objects are created lazily, only for arrivals that enter the
sample, answer a query, reach a trace, or take a scalar path (a single
arrival) — level sets park columns.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from ..common.errors import ConfigurationError
from ..net.messages import MessagePack
from ..stream.item import Item
from .base import Engine
from .batched import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_INITIAL_BATCH_SIZE,
    batch_windows,
    checkpoint_marks,
    window_order,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.counters import MessageCounters
    from .network import Network

__all__ = [
    "ColumnarEngine",
    "GroupedWindow",
    "group_window",
    "run_window",
    "window_step",
]


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


class GroupedWindow:
    """One window grouped by site: the site-sorted ``idents`` /
    ``weights`` columns, the ``site_ids`` of its runs and their
    ``starts`` / ``ends`` — one :func:`~repro.runtime.batched.window_order`
    plus one gather — and a memo of SWOR level splits.

    Every network the window is delivered to reads the same columns;
    the memo lets same-config SWOR networks split each run once
    (:meth:`split`)."""

    __slots__ = ("idents", "weights", "site_ids", "starts", "ends", "_splits")

    def __init__(self, idents, weights, site_ids, starts, ends) -> None:
        self.idents = idents
        self.weights = weights
        self.site_ids = site_ids
        self.starts = starts
        self.ends = ends
        self._splits: dict = {}

    def split(self, site, start: int, end: int):
        """``site._split`` of the weights in ``[start, end)``: the
        level split of a SWOR site (:meth:`~repro.core.site.SworSite._split`),
        a pure function of the weights, ``r`` and the saturated mask,
        computed once per ``(start, end, r, mask)`` and shared by every
        site and network that asks for it."""
        key = (start, end, site._r, site._saturated_mask)
        split = self._splits.get(key)
        if split is None:
            split = self._splits[key] = site._split(self.weights[start:end])
        return split


def group_window(assignment, idents, weights, lo: int, hi: int) -> GroupedWindow:
    """Group stream rows ``[lo, hi)`` per site and gather their columns
    once: the :class:`GroupedWindow` the columnar engine and the
    multi-query driver deliver.

    ``window_order`` is this module's name, looked up at call time, so
    a wrapper bound here (a timing ledger, a grouping oracle) sees the
    grouping of both."""
    positions, site_ids, run_starts, run_ends = window_order(assignment, lo, hi)
    return GroupedWindow(
        idents[positions], weights[positions], site_ids, run_starts, run_ends
    )


def site_results(runs, window: GroupedWindow, memo: bool = False):
    """The per-site loop: ``(site_id, result)`` of each run's own site
    pass over its slice of the window's columns, computed only when the
    caller asks for it — after the previous run's result has been
    delivered and its controls applied.

    A run of one arrival calls ``on_item`` — what ``on_columns`` would
    delegate to — whose result may be a lazy generator (the L1 site's,
    whose messages interleave with the broadcasts they trigger); longer
    runs call ``on_columns``, so every ``on_columns`` result is sized.
    With ``memo`` (a SWOR window the coordinator's check refused) each
    run reads its level split from the window's memo."""
    idents, weights = window.idents, window.weights
    for site_id, site, start, end in runs:
        if end - start == 1:
            result = site.on_item(Item(int(idents[start]), float(weights[start])))
        elif memo:
            result = site.on_columns(
                idents[start:end], weights[start:end], window.split(site, start, end)
            )
        else:
            result = site.on_columns(idents[start:end], weights[start:end])
        yield site_id, result


def window_step(network: "Network"):
    """The coordinator's pure ``can_park`` check when ``network`` takes
    the window step — every site shares the window pass, and no
    observer wraps delivery — else ``None``."""
    can_park = getattr(network.coordinator, "can_park", None)
    if (
        can_park is None
        or not shares_window_pass(network.sites)
        or network.delivery_instrumented()
    ):
        return None
    return can_park


#: The paths :func:`run_window` reports.
WHOLE, SPLIT, PER_SITE = 0, 1, 2


def run_window(network: "Network", window: GroupedWindow, can_park=None) -> int:
    """Deliver one grouped window to ``network``: the columnar engine's
    window body, which the multi-query driver also runs once per query
    network.

    With ``can_park`` (see :func:`window_step`) the SWOR window step
    runs: the window pass, then one pack fold when the window is quiet
    (``WHOLE``) or each run's slice of the pass (``SPLIT``).  Otherwise
    — and when the check refuses the pass — the per-site loop runs
    (``PER_SITE``; :func:`site_results`).  Returns the path taken."""
    sites = network.sites
    runs = [
        (site_id, sites[site_id], start, end)
        for site_id, start, end in zip(window.site_ids, window.starts, window.ends)
    ]
    prep = (
        None if can_park is None else sites[0].prepare_window(window, runs, can_park)
    )
    if prep:
        pack = prep.window_pack(window.idents, window.weights)
        if network.coordinator.folds_quietly(pack.regular_keys):
            # One fold for the window (the SWOR fold does not read the
            # sender's id).
            network.deliver_pack(runs[0][0], pack)
            return WHOLE
        results = prep.run_results(pack, runs)
        path = SPLIT
    else:
        # ``prep`` is False when the check refused the pass: each run
        # then reads its level split from the window's memo.
        results = site_results(runs, window, memo=prep is False)
        path = PER_SITE
    deliver_pack = network.deliver_pack
    deliver_upstream = network.deliver_upstream
    for site_id, result in results:
        if isinstance(result, MessagePack):
            deliver_pack(site_id, result)
        else:
            for message in result:
                deliver_upstream(site_id, message)
    return path


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
        t0 = time.perf_counter()
        fields = self._replay(network, stream, on_step, checkpoints, on_checkpoint)
        self._record_run(
            network.counters, len(stream), time.perf_counter() - t0, **fields
        )
        return network.counters

    def _replay(
        self, network: "Network", stream, on_step, checkpoints, on_checkpoint
    ) -> dict:
        """The in-process window loop (also the sharded engine's
        fallback and degraded path); returns the record's window
        counts."""
        assignment, weights, idents = stream.arrays()
        n = len(stream)
        marks: List[int] = (
            checkpoint_marks(checkpoints, network.items_processed, n)
            if checkpoints is not None and on_checkpoint is not None
            else []
        )
        mark_set = set(marks)
        can_park = window_step(network)
        paths = [0, 0, 0]
        for lo, hi in batch_windows(
            n, self.batch_size, self.initial_batch_size, marks
        ):
            window = group_window(assignment, idents, weights, lo, hi)
            paths[run_window(network, window, can_park)] += 1
            network.items_processed += hi - lo
            t = network.items_processed
            if on_step is not None:
                on_step(t)
            if hi in mark_set:
                on_checkpoint(t)
        return {
            "windows": sum(paths),
            "windows_whole": paths[WHOLE],
            "windows_split": paths[SPLIT],
            "windows_per_site": paths[PER_SITE],
        }
