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
  window takes the **window step** (:func:`run_window`), one loop over
  *stretches*, the runs of the window between two controls: a site
  pass (:meth:`~repro.core.site.SworSite.prepare_window`) draws every
  run up to the first that saturates a level, each stretch folds as
  one pack (all earlies, then all regulars, in site order), and a run
  that saturates a level or announces an epoch is delivered alone.  A
  window with no control is one pass and one fold;
* every window of the other protocols, of ``count_bits`` mode, of
  level sets disabled and of a network whose delivery is instrumented
  takes the per-site loop (:func:`site_results`): each site's bulk hook
  (:meth:`~repro.runtime.interfaces.SiteAlgorithm.on_columns`) returns
  a single :class:`~repro.net.messages.MessagePack` of parallel arrays
  per (site, batch) — word-accounted exactly as the messages it stands
  for — which the coordinator's
  :meth:`~repro.runtime.interfaces.CoordinatorAlgorithm.on_message_pack`
  bulk path re-checks with a boolean mask and folds via one
  ``np.partition`` top-``s`` merge; a run of one arrival goes to
  ``on_item``;
* the level split of the rest of a window is a pure function of the
  weights, ``r`` and the saturated mask, so the grouped window
  memoizes it (``GroupedWindow.splits``, keyed and filled by the
  site): same-config SWOR networks fed the same window split it once.

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

The window step equals the per-site loop, and nothing is ever rewound:

* only a ``LEVEL_SATURATED`` changes how many keys a run draws, and the
  saturation check runs before anything is drawn: the pass draws up to
  the saturating run, whose own earlies the coordinator walks in
  order, and the runs after it are split again and drawn on the mask
  the broadcast set;
* each run fills its slice of the pass's draw column from its own
  site's one generator, and a fill of ``n`` entries draws the variates
  ``n`` scalar draws would: the keys its ``on_columns`` (or, for a
  single arrival, ``on_item``) would draw;
* an ``EPOCH_UPDATE`` only changes which keys a run sends, and the
  announce check finds the regular whose fold sends it before the
  stretch is folded: the cut run alone announces, where the per-site
  loop announces, and every later run is re-filtered against the live
  threshold, so it sends exactly its ``on_columns`` pack;
* no control lands inside a stretch, so every site in it computes on
  stretch-start state: early keys are still drawn in delivery order,
  each level still parks its earlies in arrival order, and ``S`` keeps
  its relative arrival order (only the absolute arrival counters, and
  ``regular_accepted``, which counts survivors of each fold's entry
  threshold, differ);
* admission is monotone — per-level counts only grow and the threshold
  only rises — so a stretch pack takes the coordinator's fast path
  exactly when every per-site pack would.

The split memo changes nothing either: its key — the range start,
``r`` and the mask — determines the split, and what it shares between
networks (levels, the saturated mask, early positions) is only ever
read.  Saturation depends only on the weights and the arrival order,
so same-config networks saturate at the same arrival and share every
split.  A network's draws, thresholds and folds stay its own, so a
query network run by the multi-query driver ends in the state of a
standalone run.

``Item`` objects are created lazily, only for arrivals that enter the
sample, answer a query, reach a trace, or take a scalar path (a single
arrival) — level sets park columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..common.errors import ConfigurationError
from ..net.messages import MessagePack
from ..stream.item import Item
from .base import Engine
from .batched import DEFAULT_BATCH_SIZE, batch_windows, window_order

if TYPE_CHECKING:  # pragma: no cover - annotations only
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
    plus one gather — and ``splits``, a memo that window passes key and
    fill (:meth:`~repro.core.site.SworSite.prepare_window`).

    Every network the window is delivered to reads the same columns;
    the memo lets same-config SWOR networks split the window once."""

    __slots__ = ("idents", "weights", "site_ids", "starts", "ends", "splits")

    def __init__(self, idents, weights, site_ids, starts, ends) -> None:
        self.idents = idents
        self.weights = weights
        self.site_ids = site_ids
        self.starts = starts
        self.ends = ends
        self.splits: dict = {}


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


def site_results(runs, window: GroupedWindow):
    """The per-site loop: ``(site_id, result)`` of each run's own site
    pass over its slice of the window's columns, computed only when the
    caller asks for it — after the previous run's result has been
    delivered and its controls applied.

    A run of one arrival calls ``on_item`` — what ``on_columns`` would
    delegate to — whose result may be a lazy generator (the L1 site's,
    whose messages interleave with the broadcasts they trigger); longer
    runs call ``on_columns``, so every ``on_columns`` result is sized."""
    idents, weights = window.idents, window.weights
    for site_id, site, start, end in runs:
        if end - start == 1:
            result = site.on_item(Item(int(idents[start]), float(weights[start])))
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


def run_window(
    network: "Network", window: GroupedWindow, can_park=None
) -> Optional[int]:
    """Deliver one grouped window to ``network``: the columnar engine's
    window body, which the multi-query driver also runs once per query
    network.

    With ``can_park`` (see :func:`window_step`) the SWOR window step
    runs, one window pass at a time: each pass draws the runs up to the
    first that saturates a level, and :func:`_deliver_stretches`
    delivers them; after a saturation the next pass splits the rest of
    the window under the new mask.  Returns the number of runs
    delivered alone (0 for a window folded whole).  Otherwise — and
    when the pass does not apply — the per-site loop runs
    (:func:`site_results`) and the result is ``None``."""
    sites = network.sites
    runs = [
        (site_id, sites[site_id], start, end)
        for site_id, start, end in zip(window.site_ids, window.starts, window.ends)
    ]
    prep = (
        None if can_park is None else sites[0].prepare_window(window, runs, can_park)
    )
    if prep is None:
        deliver_pack = network.deliver_pack
        deliver_upstream = network.deliver_upstream
        for site_id, result in site_results(runs, window):
            if isinstance(result, MessagePack):
                deliver_pack(site_id, result)
            else:
                for message in result:
                    deliver_upstream(site_id, message)
        return None
    cuts = _deliver_stretches(network, runs, prep)
    while prep.count < len(runs):
        runs = runs[prep.count :]
        prep = sites[0].prepare_window(window, runs, can_park)
        cuts += _deliver_stretches(network, runs, prep)
    return cuts


def _deliver_stretches(network: "Network", runs: list, prep) -> int:
    """Deliver the runs one window pass drew (``runs`` are the runs it
    was given), one pack per stretch — the runs between two controls —
    and each run that announces an epoch or saturates a level alone.
    Returns the number of runs delivered alone.

    Before each stretch the coordinator's pure check
    (``folds_quietly``) finds the first regular whose in-order fold
    would announce: the runs before its run fold as one pack, its run
    is delivered alone, and the stretch after it is cut again at the
    live threshold the announce raised.  The pass's saturating run
    comes last, alone."""
    coordinator = network.coordinator
    deliver_pack = network.deliver_pack
    quiet = prep.count - prep.saturates
    cuts = 0
    a = 0
    while a < quiet:
        pack = prep.stretch(a, quiet)
        position = coordinator.folds_quietly(pack)
        if position is None:
            # One fold for the stretch (the SWOR fold does not read the
            # sender's id).
            deliver_pack(runs[a][0], pack)
            break
        cut = prep.cut(a, quiet, position)
        if cut > a:
            head = prep.stretch(a, cut)
            coordinator.folds_quietly(head)  # quiet: it ends before the announce
            deliver_pack(runs[a][0], head)
        deliver_pack(runs[cut][0], prep.stretch(cut, cut + 1))
        cuts += 1
        a = cut + 1
    if prep.saturates:
        deliver_pack(runs[quiet][0], prep.stretch(quiet, quiet + 1))
        cuts += 1
    return cuts


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
        Batches ramp up to it, doubling from
        :data:`~repro.runtime.batched.DEFAULT_INITIAL_BATCH_SIZE` (or
        from ``batch_size`` when that is smaller): the ramp bounds
        warm-up staleness while the coordinator's threshold is still
        near zero.

    ``last_run_stats`` counts the windows of the last run by path:
    ``windows_whole`` (folded as one pack), ``windows_split`` (cut at a
    control at least once) and ``windows_per_site`` (the per-site loop,
    for networks without the window step); they sum to ``windows``.
    ``cut_runs`` counts the runs the step delivered alone, at an epoch
    advance or a level saturation.
    """

    name = "columnar"

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive, got {batch_size}"
            )
        self.batch_size = batch_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(batch_size={self.batch_size})"

    def _replay(
        self, network: "Network", stream, on_step, marks, on_checkpoint, checkpoint
    ) -> dict:
        """The in-process window loop (also the sharded engine's
        fallback and degraded path); returns the record's window
        counts."""
        assignment, weights, idents = stream.arrays()
        n = len(stream)
        mark_set = set(marks)
        can_park = window_step(network)
        whole = split = per_site = cut_runs = 0
        for lo, hi in batch_windows(n, self.batch_size, marks):
            window = group_window(assignment, idents, weights, lo, hi)
            cuts = run_window(network, window, can_park)
            if cuts is None:
                per_site += 1
            elif cuts:
                split += 1
                cut_runs += cuts
            else:
                whole += 1
            network.items_processed += hi - lo
            t = network.items_processed
            if on_step is not None:
                on_step(t)
            if hi in mark_set:
                on_checkpoint(t)
        return {
            "windows": whole + split + per_site,
            "windows_whole": whole,
            "windows_split": split,
            "windows_per_site": per_site,
            "cut_runs": cut_runs,
        }
