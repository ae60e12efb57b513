"""Residual heavy-hitter tracking (Theorem 4).

Definition 6: report every coordinate with
``w_i >= eps * ||x_tail(1/eps)||_1`` — heavy relative to the stream
*after* the top ``1/eps`` giants are removed.  This is strictly stronger
than the classic l1 guarantee (Definition 5) and is exactly where
sampling *without* replacement earns its keep: a with-replacement
sampler spends all its draws on the giants, while SWOR can sample each
giant at most once.

Theorem 4's recipe, implemented verbatim: run the weighted SWOR of
Theorem 3 with ``s = 6*ln(1/(eps*delta))/eps`` and answer queries with
the top ``2/eps`` sampled items by weight.
"""

from __future__ import annotations

import math
from typing import List, Optional, Union

from ..common.errors import ConfigurationError
from ..core.config import SworConfig
from ..core.protocol import DistributedWeightedSWOR
from ..net.counters import MessageCounters
from ..runtime import Engine
from ..stream.item import DistributedStream, Item

__all__ = ["ResidualHeavyHitterTracker", "theorem4_sample_size"]


def theorem4_sample_size(eps: float, delta: float) -> int:
    """The paper's ``s = 6 log(1/(delta*eps))/eps`` (Theorem 4 proof)."""
    if not 0 < eps < 1:
        raise ConfigurationError(f"eps must be in (0,1), got {eps}")
    if not 0 < delta < 1:
        raise ConfigurationError(f"delta must be in (0,1), got {delta}")
    return max(1, math.ceil(6.0 * math.log(1.0 / (delta * eps)) / eps))


class ResidualHeavyHitterTracker:
    """Continuously tracks eps-residual heavy hitters over ``k`` sites.

    Parameters
    ----------
    num_sites:
        ``k``.
    eps:
        Residual heaviness threshold (Definition 6).
    delta:
        Per-query failure probability.
    seed:
        Root seed for the underlying SWOR protocol.
    sample_size_override:
        Use a custom ``s`` instead of Theorem 4's (for ablations).
    engine / batch_size:
        Execution engine selection, forwarded to the underlying SWOR
        protocol (see :func:`repro.runtime.get_engine`).
    """

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
            else theorem4_sample_size(eps, delta)
        )
        self._swor = DistributedWeightedSWOR(
            SworConfig(num_sites=num_sites, sample_size=self.sample_size),
            seed=seed,
            engine=engine,
            batch_size=batch_size,
        )

    # -- stream processing -------------------------------------------

    def process(self, site_id: int, item: Item) -> None:
        """Feed one arrival at one site."""
        self._swor.process(site_id, item)

    def run(self, stream: DistributedStream, **kwargs) -> MessageCounters:
        """Replay a whole distributed stream."""
        return self._swor.run(stream, **kwargs)

    # -- queries -------------------------------------------------------

    def report_size(self) -> int:
        """The ``O(1/eps)`` output size: the paper outputs the top
        ``2/eps`` sampled items by weight."""
        return max(1, math.ceil(2.0 / self.eps))

    def heavy_hitters(self) -> List[Item]:
        """Current report: top ``2/eps`` sampled items by weight.

        With probability ``1 - delta`` (per fixed time step) this set
        contains every eps-residual heavy hitter (Theorem 4).
        """
        sample = self._swor.sample()
        sample.sort(key=lambda item: -item.weight)
        return sample[: self.report_size()]

    def sample(self) -> List[Item]:
        """The raw underlying weighted SWOR (for diagnostics)."""
        return self._swor.sample()

    def sample_with_keys(self):
        """Underlying ``(item, key)`` pairs — estimator-ready (see
        :mod:`repro.query.estimators`)."""
        return self._swor.sample_with_keys()

    @property
    def protocol(self) -> DistributedWeightedSWOR:
        """The underlying Theorem 3 protocol (e.g. for the multi-query
        driver, which runs its network through the columnar window
        step)."""
        return self._swor

    @property
    def counters(self) -> MessageCounters:
        """Message counters of the underlying protocol."""
        return self._swor.counters
