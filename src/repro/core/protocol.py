"""Facade for the full distributed weighted-SWOR protocol (Theorem 3).

Wires ``k`` :class:`~repro.core.site.SworSite` instances and a
:class:`~repro.core.coordinator.SworCoordinator` into a
:class:`~repro.runtime.Network`, giving a one-object API:

>>> from repro import DistributedWeightedSWOR, SworConfig
>>> from repro.stream import zipf_stream, round_robin
>>> import random
>>> proto = DistributedWeightedSWOR(SworConfig(num_sites=8, sample_size=4), seed=7)
>>> stream = round_robin(zipf_stream(1000, random.Random(0)), 8)
>>> counters = proto.run(stream)
>>> len(proto.sample())
4

For turning the live sample into *answers* — subset-sum / mean /
frequency / quantile estimates with confidence intervals, or many
concurrent queries over one shared stream pass — see
:mod:`repro.query` (:func:`repro.query.subset_sum`,
:class:`repro.query.MultiQueryDriver`).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, Union

from ..common.rng import RandomSource
from ..net.counters import MessageCounters
from ..runtime import Engine, Network, get_engine
from ..stream.item import DistributedStream, Item
from .config import SworConfig
from .coordinator import SworCoordinator
from .site import SworSite

__all__ = ["DistributedWeightedSWOR"]


class DistributedWeightedSWOR:
    """Continuously maintains a weighted SWOR of size ``s`` at the
    coordinator of a ``k``-site distributed stream.

    Parameters
    ----------
    config:
        Protocol parameters (``k``, ``s``, level-set knobs).
    seed:
        Root seed; sites and coordinator get independent sub-streams.
    engine:
        Execution engine — an :class:`~repro.runtime.Engine` instance,
        a registry name (``"reference"`` / ``"columnar"`` /
        ``"sharded"``), or ``None`` for the synchronous reference
        engine.
    batch_size:
        Steady-state batch size when ``engine`` names a columnar-plane
        engine (``"columnar"`` / ``"sharded"``).
    """

    def __init__(
        self,
        config: SworConfig,
        seed: Optional[int] = None,
        engine: Union[str, Engine, None] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        self.config = config
        self.engine = get_engine(engine, batch_size=batch_size)
        source = RandomSource(seed)
        self.sites = [
            SworSite(i, config, source.substream(f"site-{i}"))
            for i in range(config.num_sites)
        ]
        self.coordinator = SworCoordinator(config, source.substream("coordinator"))
        self.network = Network(self.sites, self.coordinator)

    # -- stream processing ---------------------------------------------

    def process(self, site_id: int, item: Item) -> None:
        """Feed one arrival at one site (incremental API)."""
        self.network.step(site_id, item)

    def run(self, stream: DistributedStream, **kwargs: Any) -> MessageCounters:
        """Replay a whole distributed stream; returns message counters.

        Keyword arguments are forwarded to
        :meth:`repro.runtime.network.Network.run` (checkpoints etc.);
        the facade's configured engine is used unless overridden.
        """
        kwargs.setdefault("engine", self.engine)
        return self.network.run(stream, **kwargs)

    # -- queries ----------------------------------------------------------

    def sample(self) -> List[Item]:
        """The current weighted SWOR (valid at every time step)."""
        return self.coordinator.sample()

    def sample_with_keys(self) -> List[Tuple[Item, float]]:
        """Current sample as ``(item, key)`` pairs, decreasing keys.

        This is the estimator-ready view: feed it (with
        ``config.sample_size``) to the Horvitz–Thompson estimators in
        :mod:`repro.query.estimators` for unbiased subset-sum /
        count / quantile answers with confidence intervals.
        """
        return self.coordinator.sample_with_keys()

    @property
    def counters(self) -> MessageCounters:
        """Message counters accumulated so far."""
        return self.network.counters

    @property
    def threshold(self) -> float:
        """The coordinator's current threshold ``u``."""
        return self.coordinator.threshold

    def resource_report(self) -> dict:
        """Space/bit usage snapshot for the resource experiment (E12)."""
        site_words = self.network.site_state_words()
        exps = sum(site.exponentials_generated for site in self.sites)
        bits = sum(site.bits_generated for site in self.sites)
        return {
            "site_state_words_max": max(site_words),
            "coordinator_state_words": self.coordinator.state_words(),
            "exponentials_generated": exps,
            "bits_generated": bits,
            "mean_bits_per_exponential": (bits / exps) if exps else 0.0,
        }
