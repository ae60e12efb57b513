"""Epoch tracking — the coordinator's threshold-broadcast policy.

The algorithm's epochs bracket the sample threshold ``u`` (the ``s``-th
largest key) by powers of ``r = max(2, k/s)``: epoch ``j`` holds while
``u in [r^j, r^{j+1})``.  On an epoch change the coordinator broadcasts
the bracket floor ``r^j`` to every site (``k`` messages), and sites then
drop keys below it locally.  Because ``u`` only grows, epochs advance
monotonically; Proposition 5 bounds their expected number by
``~3 log(W/s)/log(r)``.

:func:`fold_in_epoch_segments` is the one bulk fold of keyed entries
into the sample set that keeps the announce points exact; the SWOR
coordinator (its regulars and its level releases) and the L1
coordinator share it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as _np

from ..common.errors import ConfigurationError
from ..kernels import swor_fold_regulars

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .sample_set import TopKeySample

__all__ = ["EpochTracker", "first_announce", "fold_in_epoch_segments"]


class EpochTracker:
    """Maps the evolving threshold ``u`` to epoch broadcasts."""

    def __init__(self, r: float) -> None:
        if r < 2.0:
            raise ConfigurationError(f"epoch base r must be >= 2, got {r}")
        self.r = r
        self._epoch: Optional[int] = None  # None = epoch 0, u < r^0
        self.broadcasts = 0

    @staticmethod
    def _epoch_of(u: float, r: float) -> Optional[int]:
        """Index ``j`` with ``u in [r^j, r^{j+1})``; None for ``u < 1``."""
        if u < 1.0:
            return None
        j = int(math.log(u) / math.log(r))
        while r ** (j + 1) <= u:
            j += 1
        while j > 0 and r**j > u:
            j -= 1
        return j

    @property
    def epoch(self) -> Optional[int]:
        """Current epoch index (None before ``u`` first reaches 1)."""
        return self._epoch

    def next_floor(self) -> float:
        """The least threshold :meth:`observe_threshold` would announce
        at: ``r^(j+1)`` in epoch ``j`` (the same ``r ** (j + 1)`` that
        :meth:`_epoch_of` compares against), ``1`` before epoch 0.

        ``u`` only grows and every change is observed, so the epoch
        changes exactly when ``u`` reaches this floor — which lets a
        bulk path find the arrival that crosses it without replaying."""
        return 1.0 if self._epoch is None else self.r ** (self._epoch + 1)

    def would_announce(self, u: float) -> bool:
        """Whether :meth:`observe_threshold(u)` would broadcast —
        *pure*, so bulk paths can test an epoch crossing before
        committing a merge."""
        new_epoch = self._epoch_of(u, self.r)
        return new_epoch is not None and new_epoch != self._epoch

    def snapshot_state(self) -> Tuple[Optional[int], int]:
        """Rewind point for the run-start checkpoint."""
        return (self._epoch, self.broadcasts)

    def restore_state(self, state: Tuple[Optional[int], int]) -> None:
        self._epoch, self.broadcasts = state

    def observe_threshold(self, u: float) -> Optional[float]:
        """Update with the new threshold; return ``r^j`` if the epoch
        changed (the value to broadcast), else ``None``."""
        new_epoch = self._epoch_of(u, self.r)
        if new_epoch is None or new_epoch == self._epoch:
            return None
        self._epoch = new_epoch
        self.broadcasts += 1
        return self.r**new_epoch


def first_announce(
    sample: "TopKeySample", epochs: EpochTracker, keys: _np.ndarray
) -> Optional[int]:
    """The index of the entry of ``keys`` whose in-order offer to ``S``
    announces an epoch first — the entry that completes the ``s``-th
    key at or above the next bracket floor (:meth:`EpochTracker.next_floor`)
    — or ``None`` when offering them all announces nothing.  Pure."""
    floor = epochs.next_floor()
    # u < floor (every threshold change was observed), so fewer than s
    # keys of S reach the floor and need >= 1.
    need = sample.sample_size - int(_np.count_nonzero(sample.keys >= floor))
    crossing = _np.flatnonzero(keys >= floor)
    return int(crossing[need - 1]) if len(crossing) >= need else None


def fold_in_epoch_segments(
    sample: "TopKeySample",
    epochs: EpochTracker,
    idents: _np.ndarray,
    weights: _np.ndarray,
    keys: _np.ndarray,
) -> Tuple[List[Tuple[int, float]], int]:
    """Offer keyed entries to ``S`` in order, in epoch segments.

    Sequential offers (Algorithm 3) reject a key at or below the live
    threshold ``u``, insert the rest and observe ``u`` after each
    insert.  Here each segment is one fused ``swor_fold_regulars`` call
    and one :meth:`~repro.core.sample_set.TopKeySample.fold_selected`
    commit, then one ``observe_threshold``.  A segment ends at the entry
    whose key completes the ``s``-th key at or above the next bracket
    floor ``B`` (:func:`first_announce`): that is exactly where the
    sequential threshold (the ``s``-th largest key of ``S`` plus the
    entries so far) reaches ``B`` and an announce fires.  The completing
    key is ``>= B > u``, so sequential offers insert it too; keys they
    reject are ``<= u`` and never enter the top ``s``.  A jump across
    several brackets announces once, as sequential offers do, and
    entries that cross no floor are one segment.  ``S`` and the epochs
    end bit-identical to sequential offers.

    Returns ``(announcements, survivors)``: one ``(end, floor)`` pair
    per announce (``end`` is the index after the announcing entry,
    ``floor`` the value to broadcast) and the number of entries above
    their segment's entry threshold.
    """
    n = len(keys)
    s = sample.sample_size
    announcements: List[Tuple[int, float]] = []
    survivors = 0
    lo = 0
    while lo < n:
        announcing = first_announce(sample, epochs, keys[lo:])
        hi = n if announcing is None else lo + announcing + 1
        seg_keys = keys[lo:hi]
        fold = swor_fold_regulars(seg_keys, sample.threshold, sample.keys, s)
        if len(fold[0]):
            survivors += len(fold[0])
            sample.fold_selected(idents[lo:hi], weights[lo:hi], seg_keys, *fold)
            announce = epochs.observe_threshold(sample.threshold)
            if announce is not None:
                announcements.append((hi, announce))
        lo = hi
    return announcements, survivors
