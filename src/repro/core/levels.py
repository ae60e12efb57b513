"""Level sets — the paper's mechanism for defusing heavy hitters.

Definition 4: an item of weight ``w`` has *level* ``j >= 0`` with
``w in [r^j, r^{j+1})`` (level 0 also covers ``w in [0, r)``), where
``r = max(2, k/s)``.  The first ``4rs`` items of each level are
*withheld*: forwarded to the coordinator as "early" messages and parked
in the level set ``D_j`` instead of entering the sampler.  Once ``D_j``
holds ``4rs`` items it *saturates*: all parked items are released to the
sampler at once and the sites are told to stop sending early messages
for ``j``.

Lemma 1's payoff: any item in a saturated level shares its level with
``>= 4rs`` items of weight within a factor ``r``, so it is at most a
``1/(4s)`` fraction of the weight released so far — the precondition of
the key-concentration bound (Proposition 3).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as _np

from ..common.errors import ConfigurationError, ProtocolViolationError
from ..kernels import compute_levels
from ..stream.item import Item

#: One level set ``D_j`` as columns: the parked earlies' idents,
#: weights and keys, each a list in arrival order.
Bucket = Tuple[List[Any], List[float], List[float]]

#: What :meth:`LevelSetManager.snapshot_state` returns: pending
#: buckets, saturated levels, and the two counters.
LevelSnapshot = Tuple[Dict[int, Bucket], Set[int], int, int]

__all__ = ["level_of", "levels_of_array", "LevelSetManager"]


def _power(r: float, j: int) -> float:
    """``r ** j``, or ``+inf`` where the power overflows a float."""
    try:
        return r**j
    except OverflowError:
        return math.inf


def level_of(weight: float, r: float) -> int:
    """The level ``j`` with ``weight in [r^j, r^{j+1})`` (0 for w < r).

    Float-robust: corrects the ``log`` estimate against exact powers so
    boundary weights (exactly ``r^j``) land in the right bracket.  A
    bracket power that overflows is ``+inf``, above every finite weight,
    so the top of the float range gets its exact level too.  The weight
    is in the domain ``(0, MAX_WEIGHT]``, checked where it entered
    (:func:`repro.stream.item.check_weight`).
    """
    if r < 2.0:
        raise ConfigurationError(f"level base r must be >= 2, got {r}")
    if weight < r:
        return 0
    j = int(math.log(weight) / math.log(r))
    while _power(r, j + 1) <= weight:
        j += 1
    while j > 0 and _power(r, j) > weight:
        j -= 1
    return j


def levels_of_array(weights: _np.ndarray, r: float) -> _np.ndarray:
    """Vectorized :func:`level_of` over a numpy weight array.

    Applies the same float-edge corrections as the scalar version (both
    converge on the exact power-bracket comparisons, so the result is
    independent of how the initial ``log`` estimate rounded), through
    :func:`repro.kernels.compute_levels`.
    """
    if r < 2.0:
        raise ConfigurationError(f"level base r must be >= 2, got {r}")
    return compute_levels(weights, r)


class LevelSetManager:
    """Coordinator-side store of the unsaturated level sets ``D_j``.

    Keys for early items are generated on arrival (Algorithm 2 lines
    10–11), so queries can rank withheld items without touching sampler
    state — the Theorem 3 query procedure.

    Each ``D_j`` is a :data:`Bucket` of three lists in arrival order, so
    parking builds no per-entry object and a saturating level hands its
    columns to the sampler whole.  Idents stay lists, not int64 arrays:
    the reference engine parks idents beyond int64.  The dict keeps
    levels in first-appearance order, the order :meth:`pending_columns`
    concatenates them in (and so the query view's tie order).

    Parameters
    ----------
    r:
        Level base ``max(2, k/s)``.
    saturation_size:
        Items needed to saturate a level — the paper's ``4rs`` (kept as
        an explicit parameter so the ablation bench can shrink it and
        watch Lemma 1 break).
    """

    def __init__(self, r: float, saturation_size: int) -> None:
        if saturation_size <= 0:
            raise ConfigurationError(
                f"saturation size must be positive, got {saturation_size}"
            )
        self.r = r
        self.saturation_size = saturation_size
        self._pending: Dict[int, Bucket] = {}
        self._saturated: Set[int] = set()
        self.early_items_received = 0
        self.levels_saturated = 0

    def is_saturated(self, level: int) -> bool:
        return level in self._saturated

    def add(
        self, ident: Any, weight: float, key: float, level: Optional[int] = None
    ) -> Optional[Bucket]:
        """Park an early item (with its pre-generated key) in its level,
        computed from ``weight`` unless given.  Returns the level's
        columns ``(idents, weights, keys)`` when this arrival saturates
        it — the caller then offers them to the sampler in order and
        broadcasts ``LEVEL_SATURATED`` — else ``None``."""
        if level is None:
            level = level_of(weight, self.r)
        if level in self._saturated:
            raise ProtocolViolationError(
                f"early item for already-saturated level {level} "
                f"(item {ident}); site state out of sync"
            )
        bucket = self._pending.get(level)
        if bucket is None:
            bucket = self._pending[level] = ([], [], [])
        bucket[0].append(ident)
        bucket[1].append(weight)
        bucket[2].append(key)
        self.early_items_received += 1
        if len(bucket[2]) < self.saturation_size:
            return None
        self._saturated.add(level)
        self.levels_saturated += 1
        del self._pending[level]
        return bucket

    def first_refused(self, early_levels: _np.ndarray) -> Optional[int]:
        """The position in ``early_levels`` (a pack's or a window's early
        level column, in delivery order) of the first early that does
        not park: the one that saturates its level, or one for a level
        already saturated.  ``None`` when every early parks.  Pure.

        A release takes the coordinator's sequential walk, so its point
        stays exact; the columnar window step draws nothing past the
        run that holds this early."""
        counts = _np.bincount(early_levels)
        first: Optional[int] = None
        for level in counts.nonzero()[0].tolist():
            # ``room``: the index, among this column's earlies of the
            # level, of the first one that does not park.
            room = 0
            if level not in self._saturated:
                parked = len(self._pending[level][2]) if level in self._pending else 0
                room = self.saturation_size - parked - 1
                if counts[level] <= room:
                    continue
            position = int(_np.flatnonzero(early_levels == level)[room])
            if first is None or position < first:
                first = position
        return first

    def park(
        self, early_levels: _np.ndarray, idents: Any, weights: Any, keys: Any
    ) -> None:
        """Park earlies that all park (:meth:`first_refused` is
        ``None``), each level's in arrival order: one stable argsort
        groups the columns by level, and each level takes one extend per
        column.  Levels new to the store join it in first-appearance
        order."""
        order = early_levels.argsort(kind="stable")
        ranked = early_levels[order]
        starts = [0]
        starts += ((ranked[1:] != ranked[:-1]).nonzero()[0] + 1).tolist()
        levels = ranked[starts].tolist()
        bounds = starts + [len(order)]
        columns = (
            idents[order].tolist(),
            weights[order].tolist(),
            _np.asarray(keys)[order].tolist(),
        )
        for _, g in sorted(zip(order[starts].tolist(), range(len(levels)))):
            bucket = self._pending.setdefault(levels[g], ([], [], []))
            for column, values in zip(bucket, columns):
                column.extend(values[bounds[g] : bounds[g + 1]])
        self.early_items_received += len(order)

    @staticmethod
    def _copy(pending: Dict[int, Bucket]) -> Dict[int, Bucket]:
        return {
            level: (list(idents), list(weights), list(keys))
            for level, (idents, weights, keys) in pending.items()
        }

    def snapshot_state(self) -> "LevelSnapshot":
        """Rewind point: per-bucket copies of the columns.  Bucket
        *insertion order* is part of the state (:meth:`pending_columns`
        concatenates in dict order), so the dict is copied in order."""
        return (
            self._copy(self._pending),
            set(self._saturated),
            self.early_items_received,
            self.levels_saturated,
        )

    def restore_state(self, state: "LevelSnapshot") -> None:
        pending, saturated, received, saturated_count = state
        self._pending = self._copy(pending)
        self._saturated = set(saturated)
        self.early_items_received = received
        self.levels_saturated = saturated_count

    def pending_columns(self) -> Bucket:
        """All withheld ``(idents, weights, keys)`` across unsaturated
        levels, in bucket order — ranked with the sampler's set ``S``
        by queries (Algorithm 2 line 22: ``S ∪ (∪_j D_j)``)."""
        columns: Bucket = ([], [], [])
        for bucket in self._pending.values():
            for column, values in zip(columns, bucket):
                column.extend(values)
        return columns

    def pending_entries(self) -> List[Tuple[Item, float]]:
        """The withheld entries as ``(item, key)`` pairs, in bucket
        order."""
        idents, weights, keys = self.pending_columns()
        return list(zip(map(Item, idents, weights), keys))

    def pending_count(self) -> int:
        return sum(len(keys) for _, _, keys in self._pending.values())

    def pending_weight(self) -> float:
        """Total withheld weight (used by invariants in tests)."""
        return sum(self.pending_columns()[1])

    @property
    def saturated_levels(self) -> Set[int]:
        return set(self._saturated)
