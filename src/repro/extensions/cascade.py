"""Cascade sampling — Braverman, Ostrovsky & Vorsanger's weighted SWOR.

The paper's related work (Section 1.3) cites [7] as the other
centralized weighted-SWOR construction: a chain of ``s`` single-item
weighted samplers where each level samples from the stream *minus* the
items currently held above it, achieved by "cascading" every displaced
or rejected item down to the next level as if it were a fresh arrival.

Included as an independently-derived oracle: its output law must agree
with the exponential-key sampler (`repro.centralized`), which gives the
test suite two structurally different implementations of Definition 1
to cross-validate — a strong guard against correlated bugs.

Level ``i`` keeps one item; on an arrival (original or cascaded) of
weight ``w`` when the level has seen total weight ``W_i`` (including
``w``), the level adopts the arrival with probability ``w / W_i``
(Chao's single-sample rule) and cascades whichever item it no longer
holds.  By induction each level holds a weighted sample of everything
the levels above did not take — exactly the sequential-draw process of
Definition 1.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..common.errors import ConfigurationError
from ..stream.item import Item, check_weight

__all__ = ["CascadeWeightedSWOR"]


class CascadeWeightedSWOR:
    """Weighted sample without replacement via cascade sampling [7]."""

    def __init__(self, sample_size: int, rng: random.Random) -> None:
        if sample_size <= 0:
            raise ConfigurationError(
                f"sample size must be positive, got {sample_size}"
            )
        self.sample_size = sample_size
        self._rng = rng
        self._holds: List[Optional[Item]] = [None] * sample_size
        self._level_weight: List[float] = [0.0] * sample_size
        self.items_seen = 0

    def insert(self, item: Item) -> None:
        """Process one stream item, cascading displacements downward."""
        check_weight(item.weight)
        self.items_seen += 1
        arrival: Optional[Item] = item
        for level in range(self.sample_size):
            if arrival is None:
                break
            self._level_weight[level] += arrival.weight
            held = self._holds[level]
            if held is None:
                self._holds[level] = arrival
                arrival = None
            elif self._rng.random() < arrival.weight / self._level_weight[level]:
                # Level adopts the arrival; the old item cascades down.
                self._holds[level] = arrival
                arrival = held
            # else: the arrival itself cascades down unchanged.

    def sample(self) -> List[Item]:
        """The current weighted SWOR (level order = draw order)."""
        return [item for item in self._holds if item is not None]

    def __len__(self) -> int:
        return sum(1 for item in self._holds if item is not None)
