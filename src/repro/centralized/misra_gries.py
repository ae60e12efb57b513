"""Deterministic heavy-hitter summaries: Misra–Gries and Space-Saving.

These are the standard *non-residual* heavy-hitter baselines the paper's
Theorem 4 improves upon.  Both provide the classic l1 guarantee — every
item with total weight ``>= eps * W`` is reported — but neither can
certify *residual* heavy hitters (Definition 6): after a few giants
absorb the weight budget, mid-tier items within the residual's
epsilon-fraction are indistinguishable from noise.  Experiment E7 shows
this gap empirically.

Both summaries here are the weighted generalizations (increments of
arbitrary positive size).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..common.errors import ConfigurationError
from ..stream.item import Item, check_weight

__all__ = ["MisraGries", "SpaceSaving"]


class MisraGries:
    """Weighted Misra–Gries with ``capacity`` counters.

    Guarantee: every identifier's true total weight is undercounted by
    at most ``W / (capacity + 1)``; hence any identifier with weight
    ``>= eps*W`` survives when ``capacity >= 1/eps``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._counters: Dict[int, float] = {}
        self.weight_seen = 0.0

    def insert(self, item: Item) -> None:
        """Process one weighted update, decrementing all counters when
        the table overflows (the weighted MG step)."""
        w = item.weight
        check_weight(w)
        self.weight_seen += w
        counters = self._counters
        if item.ident in counters:
            counters[item.ident] += w
            return
        if len(counters) < self.capacity:
            counters[item.ident] = w
            return
        # Decrement every counter by the smallest amount that frees a
        # slot or absorbs the new weight, whichever is smaller.
        min_count = min(counters.values())
        dec = min(min_count, w)
        remaining = w - dec
        dead = []
        for ident in counters:
            counters[ident] -= dec
            if counters[ident] <= 1e-12:
                dead.append(ident)
        for ident in dead:
            del counters[ident]
        if remaining > 0 and len(counters) < self.capacity:
            counters[item.ident] = remaining

    def estimate(self, ident: int) -> float:
        """Lower-bound estimate of the identifier's total weight."""
        return self._counters.get(ident, 0.0)

    def heavy_hitters(self, eps: float) -> List[Tuple[int, float]]:
        """Identifiers whose *estimate* passes ``eps * W`` (superset of
        the true eps-heavy identifiers when capacity >= 1/eps)."""
        thresh = eps * self.weight_seen - self.weight_seen / (self.capacity + 1)
        return sorted(
            ((i, c) for i, c in self._counters.items() if c >= max(thresh, 0.0)),
            key=lambda pair: -pair[1],
        )

    def __len__(self) -> int:
        return len(self._counters)


class SpaceSaving:
    """Weighted Space-Saving with ``capacity`` counters.

    Overestimates: each tracked identifier's counter is within
    ``W / capacity`` *above* its true weight; the minimum counter bounds
    the error of all evicted identifiers.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._counters: Dict[int, float] = {}
        self.weight_seen = 0.0

    def insert(self, item: Item) -> None:
        """Process one weighted update with min-counter replacement."""
        w = item.weight
        check_weight(w)
        self.weight_seen += w
        counters = self._counters
        if item.ident in counters:
            counters[item.ident] += w
            return
        if len(counters) < self.capacity:
            counters[item.ident] = w
            return
        victim = min(counters, key=counters.get)  # type: ignore[arg-type]
        inherited = counters.pop(victim)
        counters[item.ident] = inherited + w

    def estimate(self, ident: int) -> float:
        """Upper-bound estimate of the identifier's total weight."""
        return self._counters.get(ident, 0.0)

    def heavy_hitters(self, eps: float) -> List[Tuple[int, float]]:
        """Identifiers whose counter passes ``eps * W``."""
        thresh = eps * self.weight_seen
        return sorted(
            ((i, c) for i, c in self._counters.items() if c >= thresh),
            key=lambda pair: -pair[1],
        )

    def __len__(self) -> int:
        return len(self._counters)
