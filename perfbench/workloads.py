"""The four benchmark workloads: seeded inputs, one run, its fingerprint.

Every workload replays one pre-built :class:`~repro.stream.ColumnarStream`
over k=64 sites.  Weights follow the repository's bounded Zipf law
(``w = min(1e6, U^(-1/1.2))``, at least 1, with stratified ``U``; see
:func:`make_columns`) with distinct identifiers, and
arrivals are assigned to sites by a Zipf(1.2) law over site ranks: site 0
takes about 30% of the traffic and the tail sites a fraction of a
percent each.  Round-robin assignment would hide that skew, which is
what decides per-site batch sizes and the sharded engine's shard balance.

A workload hands the runner fresh protocol *instances* (a protocol's
state accumulates, so every timed run starts from a new one with the
same seed) and knows how to fingerprint a finished run.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import DistributedWeightedSWOR, ResidualHeavyHitterTracker, SworConfig
from repro.query import (
    CountQuery,
    GroupByQuery,
    MultiQueryDriver,
    QuantileQuery,
    QueryCatalog,
    SlidingWindowQuery,
    SubsetSumQuery,
    TotalWeightQuery,
    WeightedMeanQuery,
)
from repro.query import driver as driver_module
from repro.runtime import ColumnarEngine, ShardedEngine
from repro.runtime.batched import DEFAULT_BATCH_SIZE
from repro.stream import ColumnarStream

NUM_SITES = 64
ALPHA = 1.2  # Zipf exponent of the weights and of the site assignment
MAX_WEIGHT = 1e6
SWOR_SAMPLE = 16
HH_EPS = 0.05
MQ_SAMPLE = 64
MQ_CHECKPOINTS = 4  # answer snapshots per multiquery-mixed run, at a fixed stride


def nproc() -> int:
    """CPUs this process may run on (the cap for workers)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def make_columns(n: int, seed: int):
    """``(idents, weights, sites)`` for ``n`` arrivals, a pure function
    of ``seed``.

    The uniforms behind the weights are stratified: arrival ``i`` draws
    from its own stratum ``[j/n, (j+1)/n)`` of a random permutation
    ``j``.  Each weight still follows the Zipf law exactly, but the
    heavy tail — which sets message counts and the fold's share of a
    run — varies far less from seed to seed, so figures of different
    seeds compare.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    u = np.maximum((gen.permutation(n) + gen.random(n)) / n, 5e-324)
    weights = np.minimum(u ** (-1.0 / ALPHA), MAX_WEIGHT)
    np.maximum(weights, 1.0, out=weights)
    share = np.arange(1, NUM_SITES + 1, dtype=np.float64) ** -ALPHA
    sites = gen.choice(NUM_SITES, size=n, p=share / share.sum())
    idents = np.arange(n, dtype=np.int64)
    return idents, weights, sites


def build_stream(n: int, seed: int) -> Tuple[ColumnarStream, float]:
    """The workload stream and the seconds its ``ColumnarStream``
    construction took (the ingest layer)."""
    idents, weights, sites = make_columns(n, seed)
    t0 = time.perf_counter()
    stream = ColumnarStream(idents, weights, sites, NUM_SITES)
    return stream, time.perf_counter() - t0


def stream_bytes(stream: ColumnarStream) -> int:
    columns = [stream.idents, stream.weights, stream.sites, stream.timestamps]
    return sum(c.nbytes for c in columns if c is not None)


class WindowClock:
    """Stamps window commits and keeps the interval before each commit
    of a full-size window — how stale the coordinator's answer is when
    a window lands.  Ramp windows and checkpoint-split windows are
    shorter than the batch size and are left out."""

    def __init__(self, full: int = DEFAULT_BATCH_SIZE) -> None:
        self.full = full
        self.intervals: List[float] = []
        self._t = 0
        self._stamp = 0.0

    def start(self) -> None:
        self._t = 0
        self._stamp = time.perf_counter()

    def on_step(self, t: int) -> None:
        now = time.perf_counter()
        if t - self._t == self.full:
            self.intervals.append(now - self._stamp)
        self._t = t
        self._stamp = now


def _counters_key(counters) -> tuple:
    return tuple(sorted(counters.snapshot().items()))


def _sample_key(pairs) -> tuple:
    return tuple((item.ident, item.weight, key) for item, key in pairs)


class SworInstance:
    """One fresh weighted-SWOR protocol (``swor-skew``, ``sharded-skew``)."""

    def __init__(self, seed: int, engine) -> None:
        self.protocol = DistributedWeightedSWOR(
            SworConfig(num_sites=NUM_SITES, sample_size=SWOR_SAMPLE),
            seed=seed,
            engine=engine,
        )

    def run(self, stream, clock: WindowClock) -> None:
        self.protocol.run(stream, on_step=clock.on_step)

    def networks(self) -> List[Tuple[str, object]]:
        return [("swor", self.protocol.network)]

    def counters(self) -> list:
        return [self.protocol.counters]

    def fingerprint(self) -> tuple:
        return (
            _sample_key(self.protocol.sample_with_keys()),
            _counters_key(self.protocol.counters),
        )


class HeavyHitterInstance(SworInstance):
    """One fresh residual heavy-hitter tracker (``hh-skew``)."""

    def __init__(self, seed: int, engine) -> None:
        self.tracker = ResidualHeavyHitterTracker(
            NUM_SITES, HH_EPS, seed=seed, engine=engine
        )
        self.protocol = self.tracker.protocol


def mixed_queries() -> List:
    """The eight multiquery-mixed queries: four same-config weighted
    SWORs (fused into one shared site pass) plus one query on each of
    the unweighted, SWR, L1, and sliding-window paths."""
    return [
        SubsetSumQuery(
            "sum_even", predicate=lambda item: item.ident % 2 == 0,
            sample_size=MQ_SAMPLE,
        ),
        SubsetSumQuery("sum_all", sample_size=MQ_SAMPLE),
        QuantileQuery("quantiles", qs=(0.5, 0.9), sample_size=MQ_SAMPLE),
        GroupByQuery(
            "groups", key=lambda item: item.ident % 4, sample_size=MQ_SAMPLE
        ),
        CountQuery("count", sample_size=MQ_SAMPLE),
        WeightedMeanQuery("weighted_mean", sample_size=MQ_SAMPLE),
        TotalWeightQuery("total_weight"),
        SlidingWindowQuery("recent", window=100_000, sample_size=MQ_SAMPLE),
    ]


#: Query spec type -> the protocol path it exercises (ledger labels).
QUERY_KINDS = {
    CountQuery: "unweighted",
    WeightedMeanQuery: "swr",
    TotalWeightQuery: "l1",
    SlidingWindowQuery: "sliding",
}
FUSED_SWOR = ("sum_even", "sum_all", "quantiles", "groups")


def checkpoint_marks(n: int) -> List[int]:
    stride = n // MQ_CHECKPOINTS
    return [stride * i for i in range(1, MQ_CHECKPOINTS + 1)]


class MultiQueryInstance:
    """One fresh ``MultiQueryDriver(engine="columnar")`` (``multiquery-mixed``)."""

    def __init__(self, seed: int, n: int) -> None:
        self.driver = MultiQueryDriver(
            QueryCatalog(mixed_queries()), NUM_SITES, seed=seed, engine="columnar"
        )
        self.marks = checkpoint_marks(n)
        self.result = None

    def run(self, stream, clock: WindowClock) -> None:
        # The driver has no on_step; its window schedule generator is
        # resumed exactly when a window (and any checkpoint snapshot)
        # has committed, so a pass-through generator is its on_step.
        schedule = driver_module.batch_windows

        def stamped(*args, **kwargs):
            for lo, hi in schedule(*args, **kwargs):
                yield lo, hi
                clock.on_step(hi)

        driver_module.batch_windows = stamped
        try:
            self.result = self.driver.run(stream, checkpoints=self.marks)
        finally:
            driver_module.batch_windows = schedule

    def networks(self) -> List[Tuple[str, object]]:
        return [
            (QUERY_KINDS.get(type(c.query), "swor"), c.network)
            for c in self.driver.compiled
            if getattr(c, "network", None) is not None
        ]

    def counters(self) -> list:
        return list(self.driver.counters().values())

    def fingerprint(self) -> tuple:
        result = self.result
        return (
            tuple((t, repr(result.answers_at(t))) for t in result.checkpoints),
            repr(result.answers),
            tuple(
                (name, _counters_key(c)) for name, c in result.counters.items()
            ),
        )


class Workload:
    """A named workload: its stream size, engine, and instance factory."""

    def __init__(
        self,
        name: str,
        items: int,
        make_engine: Callable[[], Optional[object]],
        make_instance: Callable[[int, object, int], object],
    ) -> None:
        self.name = name
        self.items = items
        self.make_engine = make_engine
        self.make_instance = make_instance

    @property
    def sharded(self) -> bool:
        return self.name == "sharded-skew"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's core protocol: grouping and the site pass carry
        # the run, the fold is light once the threshold settles.
        Workload(
            "swor-skew", 2_000_000, ColumnarEngine,
            lambda seed, engine, n: SworInstance(seed, engine),
        ),
        # The paper's application: the coordinator fold and level-set
        # parking are about half the run; grouping costs as in swor-skew.
        Workload(
            "hh-skew", 2_000_000, ColumnarEngine,
            lambda seed, engine, n: HeavyHitterInstance(seed, engine),
        ),
        # swor-skew, bit for bit, across processes: the only workload
        # with transport, rollbacks and a parent/worker split.
        Workload(
            "sharded-skew", 2_000_000, lambda: ShardedEngine(workers=nproc()),
            lambda seed, engine, n: SworInstance(seed, engine),
        ),
        # Reads beside writes, and the only run of the SWR, unweighted,
        # L1 and sliding-window paths.
        Workload(
            "multiquery-mixed", 200_000, lambda: None,
            lambda seed, engine, n: MultiQueryInstance(seed, n),
        ),
    )
}
