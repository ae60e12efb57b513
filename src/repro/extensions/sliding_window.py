"""Sliding-window weighted SWOR — the paper's named open problem.

Section 6 asks to "extend our algorithm for weighted sampling to the
sliding window model of streaming, where only the most recent data is
taken into account".  This module contributes the centralized building
block: a sampler that, at any moment, can produce an exact weighted
SWOR of the last ``N`` arrivals for *any* ``N`` up to a configured
horizon — in expected ``O(s·log(n/s))`` space rather than buffering the
window.

The construction extends exponential-key precision sampling with the
classic dominance argument (Babcock–Datar–Motwani for the unweighted
case): give every arrival its key ``v = w/t`` and keep an item iff
fewer than ``s`` *later* arrivals have larger keys.  For any window
(a suffix of the arrival order), the top-``s`` keys within the window
are then all retained — because an evicted item had ``s`` later
dominators, which all belong to every window that contains it — so a
query is just "top-``s`` retained keys inside the window", which is an
exact weighted SWOR of the window by Proposition 1.

Two insertion paths share the construction:

* :meth:`SlidingWindowWeightedSWOR.insert` — one arrival, one
  ``O(retained)`` dominance scan (the historical per-item path);
* :meth:`SlidingWindowWeightedSWOR.insert_columns` — a whole column of
  arrivals at once, **bit-identical to per-item insertion at any chunk
  size** (one exponential draw per chunk gives the variates the
  per-item draws would, in the same order), with
  the dominance bookkeeping done in bulk and capped at ``s``: an item
  is dropped once it has ``s`` dominators, so only the ``s`` largest
  later keys can decide its count.  Retained entries take one
  vectorized rank lookup against the chunk's top ``s`` keys, and the
  chunk's internal dominator counts come from the capped kernel
  ``window_dominators(keys, s)`` instead of ``O(retained)`` scans per
  arrival.  This is the hook the columnar plane
  (:class:`~repro.stream.columns.ColumnarStream` timestamp columns, the
  multi-query driver's ``observe_columns`` path) feeds.

Window-validation contract
--------------------------
``sample(window=N)`` answers for **any** positive ``N`` that the
sampler's retention provably covers: the whole stream when ``horizon``
is ``None``, else any ``N <= horizon``.  ``N`` larger than the horizon
raises :class:`~repro.common.errors.ConfigurationError` (the data is
gone); ``N`` larger than the number of arrivals seen so far is *valid*
in both modes — the window simply covers the whole retained stream, the
same answer an ``N``-long window will give until the ``N+1``-th arrival.
Queries are validated against the *retention guarantee*, never against
the arrival count.

The distributed version remains open, as in the paper; this sampler is
what each site (or the coordinator, on centralized replay) would run.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as _np

from ..common.errors import ConfigurationError
from ..common.rng import MIN_EXPONENTIAL
from ..kernels import window_dominators
from ..stream.item import Item, check_weight, check_weight_column

__all__ = ["SlidingWindowWeightedSWOR"]

#: Arrivals per internal bulk round of :meth:`insert_columns` — bounds
#: the transient sort/rank arrays regardless of the caller's column
#: length.
_INSERT_CHUNK = 8192


class _Entry:
    __slots__ = ("index", "item", "key", "dominators", "timestamp")

    def __init__(
        self, index: int, item: Item, key: float, timestamp: float
    ) -> None:
        self.index = index
        self.item = item
        self.key = key
        self.dominators = 0  # later arrivals with a strictly larger key
        self.timestamp = timestamp


class SlidingWindowWeightedSWOR:
    """Exact weighted SWOR over any recent window of a weighted stream.

    Parameters
    ----------
    sample_size:
        ``s`` — the sample size served for any queried window.
    gen:
        The sampler's one generator (one exponential per arrival, clamped
        to :data:`~repro.common.rng.MIN_EXPONENTIAL` — both insertion
        paths consume exactly this, in arrival order).
    horizon:
        Optional maximum window length; arrivals older than the horizon
        are discarded outright (bounds worst-case space for infinite
        streams).  See the module docstring for the window-validation
        contract this implies.

    Notes
    -----
    Retained set size is ``O(s·log(n/s))`` in expectation for ``n``
    arrivals in the horizon: the ``i``-th most recent arrival survives
    only if its key ranks in the top ``s`` among ``i`` i.i.d.-shaped
    competitors, an event of probability ``~min(1, s/i)``.

    Every arrival also carries a *timestamp* (defaulting to its arrival
    index), which must be non-decreasing; timestamp-suffix queries
    (:meth:`sample_since`) are exact by the same dominance argument,
    since a timestamp suffix is an arrival-order suffix.
    """

    def __init__(
        self,
        sample_size: int,
        gen: _np.random.Generator,
        horizon: Optional[int] = None,
    ) -> None:
        if sample_size <= 0:
            raise ConfigurationError(
                f"sample size must be positive, got {sample_size}"
            )
        if horizon is not None and horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        self.sample_size = sample_size
        self.horizon = horizon
        self._gen = gen
        self._entries: List[_Entry] = []  # in arrival order
        self._last_timestamp = -math.inf
        self.items_seen = 0

    # -- insertion -----------------------------------------------------

    def _check_timestamp(self, ts: float) -> None:
        if ts < self._last_timestamp:
            raise ConfigurationError(
                f"timestamps must be non-decreasing: {ts} after "
                f"{self._last_timestamp}"
            )

    def insert(self, item: Item, timestamp: Optional[float] = None) -> None:
        """Observe one arrival; O(retained) time.

        ``timestamp`` defaults to the arrival index and must be
        non-decreasing across insertions.  The weight and the timestamp
        are validated before any state changes, so a rejected arrival
        leaves the sampler (and its generator) untouched.
        """
        w = item.weight
        check_weight(w)
        ts = float(self.items_seen) if timestamp is None else float(timestamp)
        self._check_timestamp(ts)
        self.items_seen += 1
        key = w / max(self._gen.standard_exponential(), MIN_EXPONENTIAL)
        s = self.sample_size
        survivors: List[_Entry] = []
        for entry in self._entries:
            if entry.key < key:
                entry.dominators += 1
            if entry.dominators < s:
                survivors.append(entry)
        survivors.append(_Entry(self.items_seen - 1, item, key, ts))
        self._last_timestamp = ts
        if self.horizon is not None:
            cutoff = self.items_seen - self.horizon
            survivors = [e for e in survivors if e.index >= cutoff]
        self._entries = survivors

    def insert_columns(self, idents, weights, timestamps=None) -> None:
        """Observe a whole column of arrivals at once.

        Bit-identical to calling :meth:`insert` per arrival — one draw
        per chunk gives the exponentials the per-item draws would, in
        the same order (so chunk boundaries never change the sample) —
        but the dominance
        bookkeeping is bulk and capped at ``s``: per internal chunk,
        each retained entry's dominator increment is its rank deficit
        against the chunk's top ``s`` keys (one vectorized
        ``searchsorted`` for *all* retained entries), and the chunk's
        internal later-larger counts come from the capped kernel
        ``window_dominators(keys, s)`` instead of the per-item
        ``O(retained)`` scan.  A count capped at ``s`` is exact below
        ``s`` (fewer than ``s`` larger keys are all among the ``s``
        largest), and at ``s`` the item is dropped either way, so every
        survivor stores the same ``dominators`` as per-item insertion.
        ``Item`` objects are built only for arrivals that survive their
        own chunk.

        ``idents`` / ``weights`` (and optional ``timestamps``, which
        must be non-decreasing) are parallel sequences; numpy columns
        from a :class:`~repro.stream.columns.ColumnarStream` are
        consumed zero-copy.  The whole column is validated up front —
        an invalid weight or timestamp raises before *any* arrival is
        inserted.
        """
        n = len(weights)
        if n == 0:
            return
        idents = _np.ascontiguousarray(idents, dtype=_np.int64)
        weights = _np.ascontiguousarray(weights, dtype=_np.float64)
        if len(idents) != n or (timestamps is not None and len(timestamps) != n):
            raise ConfigurationError("insert_columns columns disagree in length")
        check_weight_column(weights)
        if timestamps is not None:
            timestamps = _np.ascontiguousarray(timestamps, dtype=_np.float64)
            if len(timestamps) > 1 and (_np.diff(timestamps) < 0).any():
                raise ConfigurationError(
                    "timestamps must be non-decreasing within a column"
                )
        self._check_timestamp(
            float(self.items_seen) if timestamps is None else float(timestamps[0])
        )
        for lo in range(0, n, _INSERT_CHUNK):
            hi = min(lo + _INSERT_CHUNK, n)
            self._insert_chunk(
                idents[lo:hi],
                weights[lo:hi],
                None if timestamps is None else timestamps[lo:hi],
            )

    def _insert_chunk(self, idents, weights, timestamps) -> None:
        """One bulk round: draw keys, count dominators, keep survivors."""
        m = len(weights)
        s = self.sample_size
        base = self.items_seen
        draws = self._gen.standard_exponential(m)
        _np.maximum(draws, MIN_EXPONENTIAL, out=draws)
        keys = _np.divide(weights, draws, out=draws)
        # Retained entries: dominator increment = # chunk keys strictly
        # greater, capped at s — a rank deficit in the chunk's sorted
        # top s keys, exact below s.
        survivors: List[_Entry] = []
        if self._entries:
            old_keys = _np.fromiter(
                (e.key for e in self._entries),
                dtype=_np.float64,
                count=len(self._entries),
            )
            top = keys if m <= s else _np.partition(keys, m - s)[m - s:]
            top = _np.sort(top)
            incs = len(top) - _np.searchsorted(top, old_keys, side="right")
            for entry, inc in zip(self._entries, incs.tolist()):
                entry.dominators += inc
                if entry.dominators < s:
                    survivors.append(entry)
        # Chunk-internal dominators: counts of strictly-later
        # strictly-larger keys, capped at s and so exact for every
        # arrival the chunk keeps.
        dominators = window_dominators(keys, s)
        self.items_seen += m
        for i in _np.flatnonzero(dominators < s).tolist():
            entry = _Entry(
                base + i,
                Item(int(idents[i]), float(weights[i])),
                float(keys[i]),
                float(base + i) if timestamps is None else float(timestamps[i]),
            )
            entry.dominators = int(dominators[i])
            survivors.append(entry)
        self._last_timestamp = (
            float(base + m - 1) if timestamps is None else float(timestamps[-1])
        )
        if self.horizon is not None:
            cutoff = self.items_seen - self.horizon
            survivors = [e for e in survivors if e.index >= cutoff]
        self._entries = survivors

    def snapshot_state(self) -> tuple:
        """A value snapshot of everything an insertion changes: the
        generator's state, the retained entries with their dominator
        counts (the one field an insertion updates in place), the last
        timestamp and the arrivals seen."""
        return (
            self._gen.bit_generator.state,
            [(entry, entry.dominators) for entry in self._entries],
            self._last_timestamp,
            self.items_seen,
        )

    def restore_state(self, state: tuple) -> None:
        """Rewind to a :meth:`snapshot_state` taken on this sampler,
        leaving the snapshot as it was."""
        gen_state, entries, self._last_timestamp, self.items_seen = state
        self._gen.bit_generator.state = gen_state
        for entry, dominators in entries:
            entry.dominators = dominators
        self._entries = [entry for entry, _ in entries]

    # -- queries -------------------------------------------------------

    def retained_count(self) -> int:
        """Number of retained candidates (the space metric)."""
        return len(self._entries)

    def sample(self, window: Optional[int] = None) -> List[Item]:
        """Weighted SWOR of the last ``window`` arrivals (default: the
        whole horizon / stream).  Decreasing key order.  See the module
        docstring for the window-validation contract."""
        return [item for item, _ in self.sample_with_keys(window)]

    def sample_with_keys(
        self, window: Optional[int] = None
    ) -> List[Tuple[Item, float]]:
        """``(item, key)`` pairs for the window's top-``s`` keys.

        ``window`` is validated against the *retention guarantee*: it
        must be positive and, when a ``horizon`` is configured, at most
        the horizon (older data was discarded and the query would be
        silently wrong).  A window exceeding ``items_seen`` is valid in
        both modes and covers the whole retained stream — the answer an
        ``N``-long window gives before the ``N+1``-th arrival.
        """
        if window is not None:
            if window <= 0:
                raise ConfigurationError(f"window must be positive, got {window}")
            if self.horizon is not None and window > self.horizon:
                raise ConfigurationError(
                    f"window {window} exceeds horizon {self.horizon}: "
                    "arrivals beyond the horizon were discarded, so the "
                    "query cannot be answered exactly"
                )
            cutoff = self.items_seen - window
        else:
            cutoff = self.items_seen - (self.horizon or self.items_seen)
        eligible = [e for e in self._entries if e.index >= cutoff]
        eligible.sort(key=lambda e: -e.key)
        return [(e.item, e.key) for e in eligible[: self.sample_size]]

    def sample_since(self, timestamp: float) -> List[Tuple[Item, float]]:
        """``(item, key)`` pairs for the top-``s`` keys among arrivals
        with ``timestamp >= timestamp`` — a *timestamp-suffix* window.

        Exact by the dominance argument (non-decreasing timestamps make
        a timestamp suffix an arrival-order suffix).  Requires
        ``horizon=None``: with a finite horizon the sampler cannot
        prove the timestamp suffix lies inside the retained range, so
        the query is refused rather than answered wrong — use
        arrival-count windows (:meth:`sample_with_keys`) there.
        """
        if self.horizon is not None:
            raise ConfigurationError(
                "sample_since requires horizon=None (a finite horizon "
                "discards arrivals the timestamp suffix may cover); use "
                "count-based windows instead"
            )
        eligible = [e for e in self._entries if e.timestamp >= timestamp]
        eligible.sort(key=lambda e: -e.key)
        return [(e.item, e.key) for e in eligible[: self.sample_size]]
