"""Classic centralized reservoirs: Vitter's Algorithm R and weighted SWR.

These are the 1960s–80s ancestors the paper generalizes (Section 1.3):

* :class:`UnweightedReservoir` — Waterman/Vitter Algorithm R, uniform
  sample without replacement, ``O(1)`` per item;
* :class:`WeightedReservoirSWR` — weighted sampling *with* replacement
  via ``s`` independent single-item samplers (Chao's rule: replace the
  slot with probability ``w/W_t``), the centralized analogue of the
  paper's Corollary 1 reduction.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..common.errors import ConfigurationError
from ..stream.item import Item, check_weight

__all__ = ["UnweightedReservoir", "WeightedReservoirSWR"]


class UnweightedReservoir:
    """Vitter's Algorithm R: uniform SWOR of size ``s``, O(s) space."""

    def __init__(self, sample_size: int, rng: random.Random) -> None:
        if sample_size <= 0:
            raise ConfigurationError(
                f"sample size must be positive, got {sample_size}"
            )
        self.sample_size = sample_size
        self._rng = rng
        self._reservoir: List[Item] = []
        self.items_seen = 0

    def insert(self, item: Item) -> bool:
        """Process one item; returns whether the reservoir changed."""
        self.items_seen += 1
        if len(self._reservoir) < self.sample_size:
            self._reservoir.append(item)
            return True
        j = self._rng.randrange(self.items_seen)
        if j < self.sample_size:
            self._reservoir[j] = item
            return True
        return False

    def sample(self) -> List[Item]:
        """The current uniform sample (arbitrary order)."""
        return list(self._reservoir)

    def __len__(self) -> int:
        return len(self._reservoir)


class WeightedReservoirSWR:
    """Weighted sample *with* replacement of size ``s``.

    Each of the ``s`` slots independently holds a single weighted
    random item of the prefix: on arrival of ``(e, w)`` with running
    total ``W``, the slot adopts the item with probability ``w/W``
    (Chao 1982).  By induction each slot holds item ``i`` with
    probability ``w_i / W`` — exactly Definition 2.

    This sampler is the foil in the residual-heavy-hitter experiments:
    on skewed streams all ``s`` slots collapse onto the few giants.
    """

    def __init__(self, sample_size: int, rng: random.Random) -> None:
        if sample_size <= 0:
            raise ConfigurationError(
                f"sample size must be positive, got {sample_size}"
            )
        self.sample_size = sample_size
        self._rng = rng
        self._slots: List[Optional[Item]] = [None] * sample_size
        self.weight_seen = 0.0
        self.items_seen = 0

    def insert(self, item: Item) -> int:
        """Process one item; returns how many slots adopted it."""
        w = item.weight
        check_weight(w)
        self.items_seen += 1
        self.weight_seen += w
        p = w / self.weight_seen
        changed = 0
        for i in range(self.sample_size):
            if self._rng.random() < p:
                self._slots[i] = item
                changed += 1
        return changed

    def sample(self) -> List[Item]:
        """The current with-replacement sample (one entry per slot)."""
        return [slot for slot in self._slots if slot is not None]

    def __len__(self) -> int:
        return sum(1 for slot in self._slots if slot is not None)
