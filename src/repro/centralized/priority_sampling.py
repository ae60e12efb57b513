"""Priority sampling (Duffield–Lund–Thorup [17]).

The paper cites priority sampling as the network-monitoring cousin of
precision sampling: key ``q = w/u`` with uniform ``u``, keep the top
``s`` keys, and estimate any subset's total weight as
``sum over sampled subset members of max(w, tau)`` where ``tau`` is the
``(s+1)``-st largest key.  The estimator is unbiased.

Included as a substrate baseline: the examples use it for subset-sum
queries over the same streams, and tests verify unbiasedness — which
also cross-validates our key machinery, since priority and precision
sampling differ only in the key's denominator distribution.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Tuple

from ..common.errors import ConfigurationError
from ..stream.item import Item, check_weight

__all__ = ["PrioritySampler"]


class PrioritySampler:
    """Streaming priority sample of size ``s`` with subset-sum estimates."""

    def __init__(self, sample_size: int, rng: random.Random) -> None:
        if sample_size <= 0:
            raise ConfigurationError(
                f"sample size must be positive, got {sample_size}"
            )
        self.sample_size = sample_size
        self._rng = rng
        # Min-heap keeps the top (s+1) priorities; the smallest of those
        # is the threshold tau.
        self._heap: List[Tuple[float, int, Item]] = []
        self._counter = 0
        self.items_seen = 0
        self.weight_seen = 0.0

    def insert(self, item: Item) -> None:
        """Process one stream item."""
        w = item.weight
        check_weight(w)
        self.items_seen += 1
        self.weight_seen += w
        u = self._rng.random()
        while u <= 0.0:
            u = self._rng.random()
        priority = w / u
        entry = (priority, self._counter, item)
        self._counter += 1
        if len(self._heap) < self.sample_size + 1:
            heapq.heappush(self._heap, entry)
        elif priority > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)

    @property
    def threshold(self) -> float:
        """``tau``: the ``(s+1)``-st largest priority (0 while underfull)."""
        if len(self._heap) <= self.sample_size:
            return 0.0
        return self._heap[0][0]

    def sample_with_weights(self) -> List[Tuple[Item, float]]:
        """The top-``s`` items with their *estimation* weights
        ``max(w, tau)`` — each an unbiased account of the items it
        stands for."""
        tau = self.threshold
        entries = sorted(self._heap, key=lambda e: -e[0])[: self.sample_size]
        return [(e[2], max(e[2].weight, tau)) for e in entries]

    def subset_sum(self, predicate: Callable[[Item], bool]) -> float:
        """Unbiased estimate of the total weight of items satisfying
        ``predicate``."""
        return sum(w for item, w in self.sample_with_weights() if predicate(item))

    def total_weight_estimate(self) -> float:
        """Estimate of the full stream weight (predicate ``True``)."""
        return self.subset_sum(lambda _: True)

    def __len__(self) -> int:
        return min(len(self._heap), self.sample_size)
