"""Centralized weighted SWOR — the Efraimidis–Spirakis reservoir [18].

The one-pass algorithm the paper distributes: give every item a key and
keep the top ``s``.  Two equivalent key parameterizations are provided:

* **exponential keys** ``v = w/t`` with ``t ~ Exp(1)`` — the paper's
  precision-sampling form (Proposition 1); *larger* keys win;
* **ES keys** ``u^{1/w}`` with ``u ~ U(0,1)`` — the original [18] form;
  the two are monotone transforms of each other
  (``u^{1/w} = e^{-t/w}`` is increasing in ``w/t``).

This module is both a baseline (what a single site would do) and the
*correctness oracle*: the distributed protocol must produce samples with
exactly this distribution.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import List, Optional, Tuple

from ..common.errors import ConfigurationError
from ..common.rng import exponential
from ..stream.item import Item, check_weight

__all__ = ["WeightedReservoirSWOR", "SkipWeightedReservoirSWOR"]


class WeightedReservoirSWOR:
    """Streaming weighted sample *without* replacement of size ``s``.

    Maintains the items with the ``s`` largest exponential keys in a
    min-heap; insertion is ``O(log s)``.

    Parameters
    ----------
    sample_size:
        Target sample size ``s``.
    rng:
        Randomness source (one key per item).
    """

    def __init__(self, sample_size: int, rng: random.Random) -> None:
        if sample_size <= 0:
            raise ConfigurationError(
                f"sample size must be positive, got {sample_size}"
            )
        self.sample_size = sample_size
        self._rng = rng
        # Min-heap of (key, insertion_counter, item); the root is the
        # s-th largest key — the paper's threshold u.
        self._heap: List[Tuple[float, int, Item]] = []
        self._counter = 0
        self.items_seen = 0
        self.weight_seen = 0.0

    def insert(self, item: Item) -> Optional[float]:
        """Process one stream item; returns its key if it was accepted.

        The key is ``w/t`` with a fresh ``t ~ Exp(1)``.  ``None`` means
        the item's key fell below the current threshold and the sample
        did not change.
        """
        w = item.weight
        check_weight(w)
        self.items_seen += 1
        self.weight_seen += w
        key = w / exponential(self._rng)
        return self.offer_with_key(item, key)

    def offer_with_key(self, item: Item, key: float) -> Optional[float]:
        """Offer an item with an externally-generated key.

        Used by the distributed coordinator, which receives keys
        generated at the sites.
        """
        entry = (key, self._counter, item)
        self._counter += 1
        if len(self._heap) < self.sample_size:
            heapq.heappush(self._heap, entry)
            return key
        if key <= self._heap[0][0]:
            return None
        heapq.heapreplace(self._heap, entry)
        return key

    @property
    def threshold(self) -> float:
        """The ``s``-th largest key (0 while the sample is underfull)."""
        if len(self._heap) < self.sample_size:
            return 0.0
        return self._heap[0][0]

    def sample(self) -> List[Item]:
        """Current sample, in decreasing key order."""
        return [e[2] for e in sorted(self._heap, key=lambda e: -e[0])]

    def sample_with_keys(self) -> List[Tuple[Item, float]]:
        """Current sample as ``(item, key)`` pairs, decreasing keys."""
        return [(e[2], e[0]) for e in sorted(self._heap, key=lambda e: -e[0])]

    def __len__(self) -> int:
        return len(self._heap)


class SkipWeightedReservoirSWOR:
    """The A-ExpJ skip-optimized variant of Efraimidis–Spirakis.

    Instead of one random key per item, draws how much *cumulative
    weight* to skip before the next sample change — expected
    ``O(s log(n/s))`` random draws over the stream.  Produces the same
    sample law; used by performance tests to cross-check the plain
    implementation and by large-stream examples.
    """

    def __init__(self, sample_size: int, rng: random.Random) -> None:
        if sample_size <= 0:
            raise ConfigurationError(
                f"sample size must be positive, got {sample_size}"
            )
        self.sample_size = sample_size
        self._rng = rng
        self._heap: List[Tuple[float, int, Item]] = []
        self._counter = 0
        self._skip_weight = 0.0  # weight to pass before next insertion
        self.items_seen = 0
        self.weight_seen = 0.0

    def _draw_skip(self) -> None:
        """Draw the weight to skip until the next reservoir change.

        With threshold key ``T`` (in ES ``u^{1/w}`` form ``e^{-t}``
        transformed), the waiting weight is exponential; following [18],
        ``X = log(U)/log(T_es)`` in ES-key space.  We work directly in
        exponential-key space: an item of weight ``w`` beats threshold
        ``v*`` with probability ``1 - e^{-w/v*}``; the cumulative weight
        until a success is Exp(1/v*).
        """
        v_star = self._heap[0][0]
        self._skip_weight = exponential(self._rng) * v_star

    def insert(self, item: Item) -> Optional[float]:
        """Process one stream item; returns the new key on acceptance."""
        w = item.weight
        check_weight(w)
        self.items_seen += 1
        self.weight_seen += w
        if len(self._heap) < self.sample_size:
            key = w / exponential(self._rng)
            heapq.heappush(self._heap, (key, self._counter, item))
            self._counter += 1
            if len(self._heap) == self.sample_size:
                self._draw_skip()
            return key
        if w < self._skip_weight:
            self._skip_weight -= w
            return None
        # This item crosses the skip boundary: it replaces the minimum.
        # Its key is drawn conditioned on beating the threshold v*:
        # key = w / t with t ~ Exp(1) | t < w/v*.
        v_star = self._heap[0][0]
        bound = w / v_star
        u = self._rng.random()
        t = -math.log1p(u * math.expm1(-bound))
        t = min(t, bound * (1 - 1e-12))
        key = w / t
        heapq.heapreplace(self._heap, (key, self._counter, item))
        self._counter += 1
        self._draw_skip()
        return key

    @property
    def threshold(self) -> float:
        if len(self._heap) < self.sample_size:
            return 0.0
        return self._heap[0][0]

    def sample(self) -> List[Item]:
        """Current sample, in decreasing key order."""
        return [e[2] for e in sorted(self._heap, key=lambda e: -e[0])]

    def __len__(self) -> int:
        return len(self._heap)
