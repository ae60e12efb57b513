"""Compile query specs into the protocol instances that answer them.

Each :class:`~repro.query.model.Query` subtype maps onto one of the
repo's protocols:

=========================  =================================================
query                      backing protocol
=========================  =================================================
SubsetSumQuery             weighted SWOR (Theorem 3) + HT estimator
MeanWeightQuery            weighted SWOR + ratio estimator
FrequencyQuery             weighted SWOR + HT / ratio estimator
GroupByQuery               weighted SWOR + per-group HT estimator
QuantileQuery              weighted SWOR + rank-inversion estimator
HeavyHittersQuery          residual heavy hitters (Theorem 4, itself a SWOR)
CountQuery                 unweighted SWOR baseline + ``(s-1)/τ`` estimator
WeightedMeanQuery          weighted SWR (Corollary 1) + CLT estimator
TotalWeightQuery           L1 tracker (Theorem 6)
SlidingWindowQuery         centralized sliding-window sampler (Section 6)
=========================  =================================================

Every compiled query derives its protocol seed deterministically from
the driver's root seed and the query name (:func:`query_seed`), so a
standalone run of the same protocol with the same derived seed produces
the *identical* sample — the property the multi-query benchmark and the
golden parity tests pin down.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

from ..common.errors import ConfigurationError
from ..common.rng import RandomSource
from ..core.config import SworConfig
from ..core.protocol import DistributedWeightedSWOR
from ..core.swr import DistributedWeightedSWR
from ..core.unweighted import DistributedUnweightedSWOR
from ..extensions.sliding_window import SlidingWindowWeightedSWOR
from ..heavy_hitters.residual import ResidualHeavyHitterTracker
from ..l1.tracker import L1Tracker
from ..net.counters import MessageCounters
from ..runtime.network import Network
from ..stream.item import Item
from . import estimators
from .estimators import Estimate
from .model import (
    CountQuery,
    FrequencyQuery,
    GroupByQuery,
    HeavyHittersQuery,
    MeanWeightQuery,
    Query,
    QuantileQuery,
    SlidingWindowQuery,
    SubsetSumQuery,
    TotalWeightQuery,
    WeightedMeanQuery,
)

__all__ = [
    "query_seed",
    "compile_query",
    "CompiledQuery",
    "NetworkBackedQuery",
    "CentralizedQuery",
]


def query_seed(root_seed: Optional[int], name: str) -> int:
    """The per-query protocol seed derived from ``(root seed, name)``.

    Exposed so benchmarks and tests can build a *standalone* protocol
    with the exact seed the driver would use, and compare samples
    bit for bit.
    """
    return RandomSource(root_seed).spawn(f"query:{name}").seed


class CompiledQuery(ABC):
    """A query spec bound to a live protocol instance."""

    def __init__(self, query: Query) -> None:
        self.query = query

    @property
    def name(self) -> str:
        return self.query.name

    @abstractmethod
    def answer(self) -> object:
        """Snapshot answer from the protocol's current state."""

    @property
    def counters(self) -> Optional[MessageCounters]:
        """Message counters, when the backend is a distributed protocol."""
        return None


class NetworkBackedQuery(CompiledQuery):
    """A compiled query driven through a coordinator/sites network.

    The driver replays stream batches straight into ``network.sites``
    and delivers their packs and messages through the network, exactly
    like :class:`~repro.runtime.ColumnarEngine` does for a single
    protocol.
    """

    network: Network

    @property
    def counters(self) -> MessageCounters:
        return self.network.counters


class _SworBackedQuery(NetworkBackedQuery):
    """Queries answered from a live weighted SWOR (Theorem 3)."""

    def __init__(
        self,
        query: Query,
        protocol: DistributedWeightedSWOR,
        confidence: float,
    ) -> None:
        super().__init__(query)
        self.protocol = protocol
        self.network = protocol.network
        self.confidence = confidence

    @property
    def fuse_config(self) -> SworConfig:
        """Key for the driver's fused same-config site groups."""
        return self.protocol.config

    def entries(self) -> List[Tuple[Item, float]]:
        return self.protocol.sample_with_keys()

    def answer(self) -> object:
        query = self.query
        entries = self.entries()
        s = self.protocol.config.sample_size
        if isinstance(query, SubsetSumQuery):
            return estimators.subset_sum(
                entries, s, query.predicate, self.confidence
            )
        if isinstance(query, MeanWeightQuery):
            return estimators.mean_weight(
                entries, s, query.predicate, self.confidence
            )
        if isinstance(query, FrequencyQuery):
            return estimators.frequency(
                entries, s, query.ident, query.relative, self.confidence
            )
        if isinstance(query, GroupByQuery):
            return estimators.group_by_sum(
                entries, s, query.key, self.confidence
            )
        if isinstance(query, QuantileQuery):
            return {
                q: estimators.weighted_quantile(
                    entries, s, q, query.value, self.confidence
                )
                for q in query.qs
            }
        raise ConfigurationError(
            f"unsupported SWOR-backed query {type(query).__name__}"
        )


class _HeavyHittersBackedQuery(NetworkBackedQuery):
    """Heavy-hitter reports from the Theorem 4 tracker."""

    def __init__(self, query: HeavyHittersQuery, tracker: ResidualHeavyHitterTracker):
        super().__init__(query)
        self.tracker = tracker
        self.network = tracker.protocol.network

    @property
    def fuse_config(self) -> SworConfig:
        return self.tracker.protocol.config

    def answer(self) -> List[Item]:
        return self.tracker.heavy_hitters()


class _UnweightedBackedQuery(NetworkBackedQuery):
    """Count queries over the uniform-key baseline protocol."""

    def __init__(
        self,
        query: CountQuery,
        protocol: DistributedUnweightedSWOR,
        confidence: float,
    ) -> None:
        super().__init__(query)
        self.protocol = protocol
        self.network = protocol.network
        self.confidence = confidence

    def answer(self) -> Estimate:
        return estimators.count_from_uniform_sample(
            self.protocol.sample_with_keys(),
            self.protocol.sample_size,
            self.query.predicate,
            self.confidence,
        )


class _SwrBackedQuery(NetworkBackedQuery):
    """Weighted-mean queries over the with-replacement sampler."""

    def __init__(
        self,
        query: WeightedMeanQuery,
        protocol: DistributedWeightedSWR,
        confidence: float,
    ) -> None:
        super().__init__(query)
        self.protocol = protocol
        self.network = protocol.network
        self.confidence = confidence

    def answer(self) -> Estimate:
        return estimators.swr_mean(
            self.protocol.sample(), self.query.value, self.confidence
        )


class _L1BackedQuery(NetworkBackedQuery):
    """Total-weight tracking via the Theorem 6 L1 tracker."""

    def __init__(self, query: TotalWeightQuery, tracker: L1Tracker) -> None:
        super().__init__(query)
        self.tracker = tracker
        self.network = tracker.network

    def answer(self) -> Estimate:
        value = self.tracker.estimate()
        eps = self.tracker.eps
        # The (1±eps) multiplicative guarantee inverts to an interval
        # for the true W; exact while the tracker is still in its
        # before-first-epoch exact regime.
        return Estimate(
            value=value,
            variance=None,
            ci_low=value / (1.0 + eps),
            ci_high=value / (1.0 - eps) if eps < 1.0 else float("inf"),
            confidence=1.0 - self.tracker.delta,
            n_used=self.tracker.sample_size,
            method="l1-tracker",
        )


class CentralizedQuery(CompiledQuery):
    """A compiled query served by a centralized sampler at the
    coordinator; the driver feeds it the stream in global arrival order
    (no per-site state, no messages)."""

    @abstractmethod
    def observe_columns(self, idents, weights, timestamps=None) -> None:
        """Consume a chunk of arrivals in global order, given as the
        stream's parallel ident/weight (and optional timestamp)
        column slices."""


class _SlidingWindowBackedQuery(CentralizedQuery):
    def __init__(
        self,
        query: SlidingWindowQuery,
        sampler: SlidingWindowWeightedSWOR,
        confidence: float,
    ) -> None:
        super().__init__(query)
        self.sampler = sampler
        self.confidence = confidence

    def observe_columns(self, idents, weights, timestamps=None) -> None:
        """Native columnar path — bit-identical draws to per-item
        ``insert`` at any chunking (see
        :meth:`repro.extensions.SlidingWindowWeightedSWOR.insert_columns`),
        without materializing the chunk's ``Item`` objects."""
        self.sampler.insert_columns(idents, weights, timestamps)

    def answer(self) -> Estimate:
        window = min(self.query.window, max(self.sampler.items_seen, 1))
        return estimators.subset_sum(
            self.sampler.sample_with_keys(window),
            self.sampler.sample_size,
            self.query.predicate,
            self.confidence,
        )


def compile_query(
    query: Query,
    num_sites: int,
    root_seed: Optional[int],
    confidence: float = 0.95,
) -> CompiledQuery:
    """Build the protocol instance that will answer ``query``.

    All network-backed protocols are constructed with the *reference*
    engine selection left untouched — the driver, not the protocol
    facade, decides how batches flow.
    """
    seed = query_seed(root_seed, query.name)
    if isinstance(
        query,
        (SubsetSumQuery, MeanWeightQuery, FrequencyQuery, GroupByQuery, QuantileQuery),
    ):
        protocol = DistributedWeightedSWOR(
            SworConfig(num_sites=num_sites, sample_size=query.sample_size),
            seed=seed,
        )
        return _SworBackedQuery(query, protocol, confidence)
    if isinstance(query, HeavyHittersQuery):
        tracker = ResidualHeavyHitterTracker(
            num_sites,
            query.eps,
            delta=query.delta,
            seed=seed,
            sample_size_override=query.sample_size_override,
        )
        return _HeavyHittersBackedQuery(query, tracker)
    if isinstance(query, CountQuery):
        protocol = DistributedUnweightedSWOR(
            num_sites, query.sample_size, seed=seed
        )
        return _UnweightedBackedQuery(query, protocol, confidence)
    if isinstance(query, WeightedMeanQuery):
        protocol = DistributedWeightedSWR(
            num_sites, query.sample_size, seed=seed
        )
        return _SwrBackedQuery(query, protocol, confidence)
    if isinstance(query, TotalWeightQuery):
        tracker = L1Tracker(
            num_sites,
            query.eps,
            delta=query.delta,
            seed=seed,
            sample_size_override=query.sample_size_override,
            duplication_override=query.duplication_override,
        )
        return _L1BackedQuery(query, tracker)
    if isinstance(query, SlidingWindowQuery):
        sampler = SlidingWindowWeightedSWOR(
            query.sample_size,
            RandomSource(seed).substream("sliding-window"),
            horizon=query.window,
        )
        return _SlidingWindowBackedQuery(query, sampler, confidence)
    raise ConfigurationError(f"no backend for query type {type(query).__name__}")
