"""The batch schedule and window grouping shared by the columnar plane.

Every vectorized runtime — :class:`~repro.runtime.columnar.ColumnarEngine`,
the sharded workers (:mod:`repro.runtime.sharded`), and the multi-query
driver (:class:`repro.query.driver.MultiQueryDriver`) — replays a stream
in the same windows and groups each window per site the same way.  This
module is that single source: :func:`batch_windows` is the schedule,
:func:`checkpoint_marks` where it splits, :func:`window_order` the
grouping.

Why batching is correct
-----------------------
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

Batch sizes ramp up (doubling from :data:`DEFAULT_INITIAL_BATCH_SIZE`,
64, to ``batch_size``, 16384 by default), which bounds the warm-up
staleness: at stream start the threshold is 0 and no level is
saturated, so a huge first batch would send every item upstream.
Batches additionally split at requested checkpoints so
``on_checkpoint(t)`` fires at exactly ``t``.  A batch size of 1
reproduces the reference engine bit for bit (same RNG consumption,
same delivery interleaving).
"""

from __future__ import annotations

import numpy as _np

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_INITIAL_BATCH_SIZE",
    "batch_windows",
    "checkpoint_marks",
    "window_order",
]

#: The default steady-state batch size and the ramp's first size.
#: Defined once here; the CLI help text references these so the
#: documented defaults can never desync from the engine's.
DEFAULT_BATCH_SIZE = 16384
DEFAULT_INITIAL_BATCH_SIZE = 64


def batch_windows(n, batch_size, marks=()):
    """Yield ``(lo, hi)`` stream windows under the doubling ramp.

    The single source of truth for the batch schedule: sizes ramp from
    :data:`DEFAULT_INITIAL_BATCH_SIZE` (or ``batch_size``, when
    smaller) doubling up to ``batch_size``, and windows split so each
    mark in ``marks`` (stream offsets, exclusive upper bounds) lands
    exactly on a window boundary.  The columnar and sharded engines and
    the multi-query driver all iterate this, which is what makes their
    checkpoint-exactness and run-for-run parity structural rather than
    coincidental.
    """
    marks = sorted(marks)
    mark_index = 0
    lo = 0
    size = min(DEFAULT_INITIAL_BATCH_SIZE, batch_size)
    while lo < n:
        hi = min(lo + size, n)
        while mark_index < len(marks) and marks[mark_index] <= lo:
            mark_index += 1
        if mark_index < len(marks) and marks[mark_index] < hi:
            hi = marks[mark_index]  # split so the mark is exact
        yield lo, hi
        lo = hi
        size = min(size * 2, batch_size)


def checkpoint_marks(checkpoints, base, n):
    """The stream offsets, sorted and distinct, at which a run of ``n``
    arrivals over a network that has processed ``base`` must stop for
    ``checkpoints``.

    Checkpoints count cumulative arrivals (the reference engine's
    ``items_processed`` clock), so a network reused across runs keeps
    one clock; the marks are the ones that fall inside this run, as
    offsets into its stream — what :func:`batch_windows` splits at.
    """
    return [t - base for t in sorted(set(checkpoints)) if base < t <= base + n]


def window_order(sites, lo, hi):
    """Group rows ``[lo, hi)`` of a site column per site, in O(n).

    The single source of truth for how every engine groups a window —
    the columnar engine, the sharded workers (over their
    :class:`~repro.stream.columns.ShardSliceView` rows), and the
    multi-query driver, all through
    :func:`~repro.runtime.columnar.group_window` — which is what keeps
    their grouping, and hence their run-for-run RNG parity, structural.

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
    in arrival order.  Requires non-negative site ids.
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
