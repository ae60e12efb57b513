"""The classic SWR-based heavy-hitter tracker — the technique Theorem 4
improves upon.

Section 1.2: "By standard coupon collector arguments, taking
O(log(1/eps)/eps) samples with replacement is enough to find all items
which have weight within an eps fraction of the total."  This module
implements exactly that — a distributed with-replacement sampler of
``s = c·log(1/(eps·delta))/eps`` slots whose report is the heaviest
sampled items — so the benchmarks can show both halves of the paper's
argument:

* it *does* solve the classic Definition 5 problem (plain l1 heavy
  hitters), and
* it *cannot* solve Definition 6 (residual heavy hitters): all slots
  collapse onto the few giants, which is the failure that motivates
  sampling without replacement.
"""

from __future__ import annotations

import math
from typing import List, Optional, Union

from ..common.errors import ConfigurationError
from ..core.swr import DistributedWeightedSWR
from ..net.counters import MessageCounters
from ..runtime import Engine
from ..stream.item import DistributedStream, Item

__all__ = ["SwrHeavyHitterTracker", "coupon_collector_sample_size"]


def coupon_collector_sample_size(eps: float, delta: float) -> int:
    """``s = 6·log(1/(eps·delta))/eps`` — the with-replacement budget
    matched to Theorem 4's, so comparisons are like for like."""
    if not 0 < eps < 1:
        raise ConfigurationError(f"eps must be in (0,1), got {eps}")
    if not 0 < delta < 1:
        raise ConfigurationError(f"delta must be in (0,1), got {delta}")
    return max(1, math.ceil(6.0 * math.log(1.0 / (eps * delta)) / eps))


class SwrHeavyHitterTracker:
    """Distributed l1 heavy-hitter tracking via sampling *with*
    replacement (the pre-Theorem 4 state of the art)."""

    def __init__(
        self,
        num_sites: int,
        eps: float,
        delta: float = 0.05,
        seed: Optional[int] = None,
        sample_size_override: Optional[int] = None,
        engine: Union[str, Engine, None] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        if not 0 < eps < 1:
            raise ConfigurationError(f"eps must be in (0,1), got {eps}")
        self.eps = eps
        self.delta = delta
        self.sample_size = (
            sample_size_override
            if sample_size_override is not None
            else coupon_collector_sample_size(eps, delta)
        )
        self._swr = DistributedWeightedSWR(
            num_sites,
            self.sample_size,
            seed=seed,
            engine=engine,
            batch_size=batch_size,
        )

    def process(self, site_id: int, item: Item) -> None:
        """Feed one arrival at one site."""
        self._swr.process(site_id, item)

    def run(self, stream: DistributedStream, **kwargs) -> MessageCounters:
        """Replay a whole distributed stream."""
        return self._swr.run(stream, **kwargs)

    def report_size(self) -> int:
        """Output budget, matched to Theorem 4's ``2/eps``."""
        return max(1, math.ceil(2.0 / self.eps))

    def heavy_hitters(self) -> List[Item]:
        """Distinct sampled items, heaviest first, top ``2/eps``.

        Contains every Definition 5 (plain eps-l1) heavy hitter with
        probability ``1-delta`` — but NOT the Definition 6 residual
        ones, since slots concentrate on the heaviest items.
        """
        distinct = {}
        for item in self._swr.sample():
            distinct[item.ident] = item
        report = sorted(distinct.values(), key=lambda it: -it.weight)
        return report[: self.report_size()]

    @property
    def protocol(self) -> DistributedWeightedSWR:
        """The underlying weighted SWR protocol."""
        return self._swr

    @property
    def counters(self) -> MessageCounters:
        return self._swr.counters
