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
from typing import Dict, List, Optional, Set, Tuple

import numpy as _np

from ..common.errors import ConfigurationError, ProtocolViolationError
from ..kernels import compute_levels
from ..stream.item import Item

#: What :meth:`LevelSetManager.snapshot_state` returns: pending
#: buckets, saturated levels, and the two counters.
LevelSnapshot = Tuple[
    Dict[int, List[Tuple["Item", float]]], Set[int], int, int
]

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
    so the top of the float range gets its exact level too.
    """
    if weight <= 0.0 or not math.isfinite(weight):
        raise ConfigurationError(f"weight must be positive and finite: {weight}")
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
        self._pending: Dict[int, List[Tuple[Item, float]]] = {}
        self._saturated: Set[int] = set()
        self.early_items_received = 0
        self.levels_saturated = 0

    def is_saturated(self, level: int) -> bool:
        return level in self._saturated

    def add(
        self, item: Item, key: float, level: Optional[int] = None
    ) -> Optional[List[Tuple[Item, float]]]:
        """Park an early item (with its pre-generated key) in its level.

        Returns the full batch of ``(item, key)`` entries when this
        arrival saturates the level — the caller must then feed them to
        the sampler and broadcast ``LEVEL_SATURATED`` — else ``None``.
        ``level`` may be passed when the caller already computed it.
        """
        if level is None:
            level = level_of(item.weight, self.r)
        if level in self._saturated:
            raise ProtocolViolationError(
                f"early item for already-saturated level {level} "
                f"(item {item.ident}); site state out of sync"
            )
        bucket = self._pending.setdefault(level, [])
        bucket.append((item, key))
        self.early_items_received += 1
        if len(bucket) >= self.saturation_size:
            self._saturated.add(level)
            self.levels_saturated += 1
            del self._pending[level]
            return bucket
        return None

    def can_absorb(self, level: int, count: int) -> bool:
        """Whether ``count`` more earlies can be parked in ``level``
        without touching a saturated level or triggering saturation —
        the precondition of :meth:`add_many` (saturation events must
        take the sequential path so the release point stays exact)."""
        if level in self._saturated:
            return False
        return len(self._pending.get(level, ())) + count < self.saturation_size

    def add_many(self, level: int, entries: List[Tuple[Item, float]]) -> None:
        """Park a batch of pre-keyed entries in one unsaturated level.

        Bulk counterpart of :meth:`add` for the coordinator's columnar
        pack path; entries must be in arrival order and the caller must
        have checked :meth:`can_absorb` first.
        """
        if not self.can_absorb(level, len(entries)):
            raise ProtocolViolationError(
                f"bulk park of {len(entries)} items would saturate (or hit "
                f"an already-saturated) level {level}; use sequential add"
            )
        self._pending.setdefault(level, []).extend(entries)
        self.early_items_received += len(entries)

    def snapshot_state(self) -> "LevelSnapshot":
        """Cheap rewind point: bucket entries are immutable tuples, so
        shallow per-bucket copies suffice.  Bucket *insertion order* is
        part of the state (``pending_entries`` concatenates in dict
        order), so the dict is copied as-is."""
        return (
            {level: list(bucket) for level, bucket in self._pending.items()},
            set(self._saturated),
            self.early_items_received,
            self.levels_saturated,
        )

    def restore_state(self, state: "LevelSnapshot") -> None:
        pending, saturated, received, saturated_count = state
        self._pending = {level: list(bucket) for level, bucket in pending.items()}
        self._saturated = set(saturated)
        self.early_items_received = received
        self.levels_saturated = saturated_count

    def pending_entries(self) -> List[Tuple[Item, float]]:
        """All withheld ``(item, key)`` pairs across unsaturated levels.

        Queries rank these alongside the sampler's set ``S``
        (Algorithm 2 line 22: ``S ∪ (∪_j D_j)``).
        """
        out: List[Tuple[Item, float]] = []
        for bucket in self._pending.values():
            out.extend(bucket)
        return out

    def pending_count(self) -> int:
        return sum(len(b) for b in self._pending.values())

    def pending_weight(self) -> float:
        """Total withheld weight (used by invariants in tests)."""
        return sum(
            item.weight for bucket in self._pending.values() for item, _ in bucket
        )

    @property
    def saturated_levels(self) -> Set[int]:
        return set(self._saturated)
