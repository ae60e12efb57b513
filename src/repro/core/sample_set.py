"""The coordinator's sample set ``S`` — top-``s`` keys with a threshold.

Algorithm 3 ("Add-to-Sample") maintains the invariant that ``S`` holds
the items with the ``s`` largest keys seen by the sampler, and exposes
``u``, the smallest key in a full ``S`` — the quantity whose epoch
bracket drives all site-side filtering.

Slot layout.  ``S`` lives in ``s`` slots of three parallel columns: a
float64 key array, an int64 arrival-order array (a counter advanced by
every offer, the tie-break) and a list of :class:`Item` objects (idents
beyond int64 still reach the reference engine).  Slots are unordered;
the threshold and the slot that holds it are cached and refreshed with
one ``argmin`` after each mutation, so no path walks ``S`` in Python.

Tie rule.  Among equal minimal keys the *oldest* arrival is evicted
first, and the query view lists equal keys oldest first — the order a
``(key, counter)`` min-heap gives.

Two mutation paths share the invariant:

* :meth:`TopKeySample.add` — one offer (the paper's per-round model):
  append while underfull, otherwise overwrite the threshold slot;
* :meth:`TopKeySample.fold_selected` — the columnar bulk commit of a
  selection the fused kernel (``swor_fold_regulars``) computed from
  :attr:`TopKeySample.keys`: kept candidates overwrite exactly the
  evicted slots, then fill the free ones, so the Python work is
  proportional to the candidates kept, not to ``s``.

Key-view lifetime.  :attr:`TopKeySample.keys` is a view of the live key
column, not a copy: read it, hand it to a kernel, and drop it before
the next mutation.

The sorted query view (:meth:`entries` / :meth:`items`) is computed
once per mutation epoch and cached — checkpoint-heavy runs used to pay
``O(s log s)`` per snapshot, every snapshot.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as _np

from ..common.errors import ConfigurationError
from ..stream.item import Item

__all__ = ["TopKeySample"]

#: What :meth:`TopKeySample.snapshot_state` returns: keys, arrival
#: orders and items of the filled slots, the arrival counter and the
#: tie-fallback count — plain tuples, so snapshots compare by value.
SampleSnapshot = Tuple[Tuple[float, ...], Tuple[int, ...], Tuple[Item, ...], int, int]


class TopKeySample:
    """The ``s`` items with the largest keys, kept in slot arrays.

    ``threshold`` is the paper's ``u``: the ``s``-th largest key once
    the set is full, and ``0`` before that (matching Algorithm 2's
    initialization ``u <- 0``, which makes every key pass).
    """

    # Derived from the snapshotted columns: restore_state() re-derives
    # the threshold and its slot with _refresh() and drops the view.
    _SNAPSHOT_EXCLUDE = ("_threshold", "_min_slot", "_sorted")

    def __init__(self, sample_size: int) -> None:
        if sample_size <= 0:
            raise ConfigurationError(
                f"sample size must be positive, got {sample_size}"
            )
        self.sample_size = sample_size
        self._keys = _np.zeros(sample_size, dtype=_np.float64)
        self._order = _np.zeros(sample_size, dtype=_np.int64)
        self._items: List[Item] = []
        self._counter = 0
        self._threshold = 0.0
        self._min_slot = 0
        self._sorted: Optional[List[Tuple[Item, float]]] = None
        #: How often a bulk fold hit an ambiguous selection tie and
        #: replayed sequentially (measure-zero for continuous keys;
        #: observability only).
        self.tie_fallbacks = 0

    def _refresh(self) -> None:
        """Re-derive the cached threshold (and its slot) after a
        mutation: one ``argmin`` once full, ``0`` while underfull."""
        if len(self._items) < self.sample_size:
            self._threshold = 0.0
            return
        slot = int(self._keys.argmin())
        self._min_slot = slot
        self._threshold = float(self._keys[slot])

    def add(self, item: Item, key: float) -> Optional[Item]:
        """Insert ``(item, key)``; evict and return the displaced item.

        Returns ``None`` when nothing was evicted (set was underfull).
        A key at or below the threshold of a full set does not enter:
        the incoming item itself is returned as displaced.
        """
        order = self._counter
        self._counter += 1
        n = len(self._items)
        if n < self.sample_size:
            self._keys[n] = key
            self._order[n] = order
            self._items.append(item)
            self._sorted = None
            self._refresh()
            return None
        threshold = self._threshold
        if key <= threshold:
            return item
        keys = self._keys
        slot = self._min_slot
        if _np.count_nonzero(keys == threshold) > 1:
            # Equal minimal keys: evict the oldest arrival among them.
            tied = _np.flatnonzero(keys == threshold)
            slot = int(tied[self._order[tied].argmin()])
        evicted = self._items[slot]
        keys[slot] = key
        self._order[slot] = order
        self._items[slot] = item
        self._sorted = None
        self._refresh()
        return evicted

    # -- bulk path (columnar runtime) ----------------------------------

    @property
    def keys(self) -> _np.ndarray:
        """The keys of the filled slots, in slot order — a view of the
        live column (no copy), valid until the next mutation.  Every
        consumer treats it as a multiset."""
        return self._keys[: len(self._items)]

    @property
    def offers(self) -> int:
        """The arrival counter: it advances with every change to the
        set, so a caller can tell whether ``S`` changed since it last
        looked (until a :meth:`restore_state`)."""
        return self._counter

    def fold_selected(
        self,
        idents: Any,
        weights: Any,
        keys: Any,
        surv_idx: Any,
        kept_idx: Any,
        cut: float,
        at_cut: int,
    ) -> int:
        """Commit a fold whose selection the fused kernel
        (``swor_fold_regulars``, over :attr:`keys`) already computed.

        ``idents``/``weights``/``keys`` are the *full* pack columns;
        ``surv_idx`` indexes the candidates above the entry threshold,
        ``kept_idx`` the subset at or above the merged ``cut`` (equal to
        ``surv_idx`` on the underfull push path), and ``at_cut != 1``
        routes to the exact sequential tie fallback.  The final set
        equals what per-candidate :meth:`add` calls in arrival order
        would leave: sequential insertion into a top-``s`` structure
        keeps exactly the ``s`` largest keys of the union, and with an
        unambiguous cut those are the old keys at or above ``cut`` plus
        the kept candidates, which take arrival orders in pack order.
        ``Item`` objects are built only for kept candidates.  Returns
        the number of candidates that entered the set.
        """
        n_surv = len(surv_idx)
        if n_surv == 0:
            return 0
        n = len(self._items)
        if n_surv <= self.sample_size - n:
            holes = _np.arange(0)  # push: nothing evicted
        elif at_cut != 1:
            # Ambiguous boundary — replay the exact per-item semantics.
            self.tie_fallbacks += 1
            kept = 0
            for i in surv_idx.tolist():
                key = float(keys[i])
                if key > self._threshold:
                    self.add(Item(int(idents[i]), float(weights[i])), key)
                    kept += 1
            return kept
        else:
            holes = _np.flatnonzero(self._keys[:n] < cut)
        m = len(kept_idx)
        # Kept candidates overwrite the evicted slots, then fill the
        # free slots after the filled ones.
        slots = _np.concatenate([holes, _np.arange(n, n + m - len(holes))])
        self._keys[slots] = keys[kept_idx]
        self._order[slots] = _np.arange(self._counter, self._counter + m)
        self._counter += m
        new_items = list(
            map(Item, idents[kept_idx].tolist(), weights[kept_idx].tolist())
        )
        items = self._items
        for slot, item in zip(holes.tolist(), new_items):
            items[slot] = item
        items.extend(new_items[len(holes):])
        self._sorted = None
        self._refresh()
        return m

    # -- snapshots (every engine's run-start checkpoint) --------------

    def snapshot_state(self) -> SampleSnapshot:
        """Rewind point as plain tuples (value-comparable; ``Item`` is
        immutable, so the items are shared, not copied)."""
        n = len(self._items)
        return (
            tuple(self._keys[:n].tolist()),
            tuple(self._order[:n].tolist()),
            tuple(self._items),
            self._counter,
            self.tie_fallbacks,
        )

    def restore_state(self, state: SampleSnapshot) -> None:
        keys, order, items, counter, tie_fallbacks = state
        n = len(items)
        self._keys[:n] = keys
        self._order[:n] = order
        self._items = list(items)
        self._counter = counter
        self.tie_fallbacks = tie_fallbacks
        self._sorted = None
        self._refresh()

    # -- queries -------------------------------------------------------

    @property
    def threshold(self) -> float:
        """``u`` — the ``s``-th largest key, or 0 while underfull."""
        return self._threshold

    @property
    def full(self) -> bool:
        return len(self._items) >= self.sample_size

    def _sorted_view(self) -> List[Tuple[Item, float]]:
        """The decreasing-key view (equal keys oldest first), re-sorted
        only after a mutation."""
        if self._sorted is None:
            n = len(self._items)
            keys = self._keys[:n]
            rank = _np.lexsort((self._order[:n], -keys)).tolist()
            items, key_list = self._items, keys.tolist()
            self._sorted = [(items[i], key_list[i]) for i in rank]
        return self._sorted

    def entries(self) -> List[Tuple[Item, float]]:
        """``(item, key)`` pairs in decreasing key order (cached per
        mutation epoch; the returned list is the caller's to mutate)."""
        return list(self._sorted_view())

    def items(self) -> List[Item]:
        """Sampled items in decreasing key order."""
        return [item for item, _ in self._sorted_view()]

    def __len__(self) -> int:
        return len(self._items)
