"""Concurrent multi-query driver: many protocols, one stream pass.

:class:`MultiQueryDriver` answers N heterogeneous registered queries
over a *single shared pass* of a
:class:`~repro.stream.item.DistributedStream` **or**
:class:`~repro.stream.columns.ColumnarStream` — the pass reads only the
stream's ``arrays()`` columns, so a columnar stream is consumed without
ever materializing per-arrival objects: network-backed queries' sites
get ident/weight column slices through their
:meth:`~repro.runtime.interfaces.SiteAlgorithm.on_columns` hooks, and
centralized backends take column slices through ``observe_columns``.
Each query is backed by its own protocol instance (weighted/unweighted
SWOR, SWR, L1 tracker, sliding-window sampler) with an independent,
deterministically derived seed — the same sample a standalone
run with :func:`repro.query.backends.query_seed` would produce.

Per window the driver groups the arrivals by site (one counting sort)
and gathers the site-sorted ident/weight columns **once**, into one
:class:`~repro.runtime.columnar.GroupedWindow` — the columnar engine's
own :func:`~repro.runtime.columnar.group_window` — then it runs the
columnar engine's window body,
:func:`~repro.runtime.columnar.run_window`, once per query network.
Every query network therefore takes exactly the path a standalone
:class:`~repro.runtime.ColumnarEngine` run takes — SWOR and heavy-hitter
queries the SWOR window step, the others the per-site loop — and ends
with the same sample, counters and coordinator state.  Same-config
SWOR queries share the level split of every window and of every run of
a refused window through the grouped window's memo: the split is a
pure function of the weights, ``r`` and the saturated mask, all
independent of a query's random draws.

The batch schedule is the columnar engine's
(:func:`~repro.runtime.batched.batch_windows`: doubling ramp,
checkpoint-exact splits), so a driver with a single query is
bit-identical to a standalone run under
:class:`~repro.runtime.ColumnarEngine` — and with ``engine="reference"``
(batch size 1) to the reference engine.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..common.errors import ConfigurationError
from ..net.counters import MessageCounters
from ..obs import NULL_REGISTRY
from ..runtime.batched import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_INITIAL_BATCH_SIZE,
    batch_windows,
    checkpoint_marks,
)
from ..runtime.columnar import group_window, run_window, window_step
from ..stream.item import DistributedStream
from .backends import (
    CentralizedQuery,
    CompiledQuery,
    NetworkBackedQuery,
    compile_query,
)
from .model import Query, QueryCatalog

__all__ = ["MultiQueryDriver", "MultiQueryResult"]


class MultiQueryResult:
    """Answers and accounting from one shared pass.

    Attributes
    ----------
    answers:
        Final per-query answers (``{name: answer}``; answer types vary
        by query — :class:`~repro.query.estimators.Estimate`, dicts of
        estimates, or item lists for heavy hitters).
    counters:
        Per-query :class:`~repro.net.counters.MessageCounters` for the
        network-backed queries (centralized backends send no messages).
    items_processed:
        Global arrivals replayed.
    """

    def __init__(
        self,
        answers: Dict[str, object],
        counters: Dict[str, MessageCounters],
        items_processed: int,
        snapshots: List[Tuple[int, Dict[str, object]]],
    ) -> None:
        self.answers = answers
        self.counters = counters
        self.items_processed = items_processed
        self._snapshots = dict(snapshots)

    @property
    def checkpoints(self) -> List[int]:
        """Checkpoint times with recorded snapshots, ascending."""
        return sorted(self._snapshots)

    def answers_at(self, checkpoint: int) -> Dict[str, object]:
        """Per-query answers snapshotted after item ``checkpoint``."""
        try:
            return self._snapshots[checkpoint]
        except KeyError:
            raise ConfigurationError(
                f"no snapshot at {checkpoint}; recorded: {self.checkpoints}"
            ) from None


class MultiQueryDriver:
    """Run a catalog of queries concurrently over one stream pass.

    Parameters
    ----------
    queries:
        A :class:`~repro.query.model.QueryCatalog` or iterable of
        :class:`~repro.query.model.Query` specs.
    num_sites:
        ``k`` — must match the stream's site count.
    seed:
        Root seed; each query's protocol derives an independent seed
        via :func:`repro.query.backends.query_seed`.
    engine:
        ``"columnar"`` (the default: the batch schedule and zero-object
        pack data plane of :class:`~repro.runtime.ColumnarEngine`) or
        ``"reference"`` (the same plane at batch size 1 — the
        synchronous round model, bit-identical to
        :class:`~repro.runtime.ReferenceEngine`).  ``"sharded"`` is
        accepted as a passthrough and selects the columnar data plane:
        the driver's shared pass is itself the execution engine and
        runs in-process (per-query results are bit-identical either
        way); shard-parallel *site* execution applies to
        single-protocol runs via :class:`~repro.runtime.ShardedEngine`.
    batch_size / initial_batch_size:
        Batch ramp, as in :class:`~repro.runtime.ColumnarEngine`;
        rejected under ``engine="reference"``, exactly as
        :func:`~repro.runtime.get_engine` rejects a reference engine
        with a batch size.
    confidence:
        Nominal CI level for all estimator-backed answers.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`; when attached,
        each run exports per-query fold time
        (``repro_query_fold_seconds_total{query=...}``), per-query
        message gauges, and driver run/item counters.  Answers and
        counters are bit-identical with and without it.
    """

    def __init__(
        self,
        queries: Union[QueryCatalog, Iterable[Query]],
        num_sites: int,
        seed: Optional[int] = None,
        engine: str = "columnar",
        batch_size: Optional[int] = None,
        initial_batch_size: Optional[int] = None,
        confidence: float = 0.95,
        registry=None,
    ) -> None:
        if num_sites <= 0:
            raise ConfigurationError(f"num_sites must be positive, got {num_sites}")
        if engine not in ("columnar", "sharded", "reference"):
            raise ConfigurationError(
                "engine must be 'columnar', 'sharded', or 'reference', "
                f"got {engine!r}"
            )
        if engine == "reference":
            for name, value in (
                ("batch_size", batch_size),
                ("initial_batch_size", initial_batch_size),
            ):
                if value is not None:
                    raise ConfigurationError(
                        f"engine 'reference' does not take a {name}"
                    )
            batch_size = initial_batch_size = 1
        # None means "engine default", matching the protocol facades.
        if batch_size is None:
            batch_size = DEFAULT_BATCH_SIZE
        if initial_batch_size is None:
            initial_batch_size = DEFAULT_INITIAL_BATCH_SIZE
        if batch_size <= 0 or initial_batch_size <= 0:
            raise ConfigurationError("batch sizes must be positive")
        catalog = (
            queries if isinstance(queries, QueryCatalog) else QueryCatalog(list(queries))
        )
        if len(catalog) == 0:
            raise ConfigurationError("need at least one query")
        self.catalog = catalog
        self.num_sites = num_sites
        self.seed = seed
        self.engine = engine
        self.batch_size = batch_size
        self.initial_batch_size = min(initial_batch_size, batch_size)
        self.confidence = confidence
        self.compiled: List[CompiledQuery] = [
            compile_query(query, num_sites, seed, confidence) for query in catalog
        ]
        self._network_backed = [
            c for c in self.compiled if isinstance(c, NetworkBackedQuery)
        ]
        self._centralized = [
            c for c in self.compiled if isinstance(c, CentralizedQuery)
        ]
        self.items_processed = 0
        #: Telemetry sink (:mod:`repro.obs`); the no-op registry by
        #: default, so un-instrumented drivers time nothing per batch.
        self.registry = NULL_REGISTRY if registry is None else registry

    # -- answers ------------------------------------------------------

    def answers(self) -> Dict[str, object]:
        """Live per-query answers at this instant (valid at any step)."""
        return {c.name: c.answer() for c in self.compiled}

    def counters(self) -> Dict[str, MessageCounters]:
        """Per-query message counters for the network-backed queries."""
        return {c.name: c.counters for c in self._network_backed}

    def __getitem__(self, name: str) -> CompiledQuery:
        for c in self.compiled:
            if c.name == name:
                return c
        raise ConfigurationError(f"unknown query {name!r}")

    # -- the shared pass ----------------------------------------------

    def run(
        self,
        stream: DistributedStream,
        checkpoints: Optional[Iterable[int]] = None,
    ) -> MultiQueryResult:
        """Replay ``stream`` once, feeding every query.

        ``stream`` may be a :class:`~repro.stream.item.DistributedStream`
        or a :class:`~repro.stream.columns.ColumnarStream`; per-query
        answers are bit-identical between the two representations of
        the same data (``Item`` objects are only ever built lazily,
        for arrivals that enter a sample or answer a query).

        ``checkpoints`` (1-indexed global item counts) snapshot every
        query's answer mid-stream; batches split so each snapshot is
        taken after exactly that many arrivals (see
        :meth:`MultiQueryResult.answers_at`).  Like the engines',
        checkpoint counts are cumulative across ``run`` calls: a driver
        reused on a second stream keeps one clock.

        Raises :class:`~repro.common.errors.ConfigurationError` before
        any query runs when the stream's identifiers are not
        int64-representable (see
        :meth:`~repro.stream.item.DistributedStream.arrays`).
        """
        if stream.num_sites != self.num_sites:
            raise ConfigurationError(
                f"stream has {stream.num_sites} sites, driver has {self.num_sites}"
            )
        assignment, weights, idents = stream.arrays()
        n = len(stream)
        base = self.items_processed
        marks: List[int] = checkpoint_marks(checkpoints, base, n) if checkpoints else []
        mark_set = set(marks)
        snapshots: List[Tuple[int, Dict[str, object]]] = []
        centralized = self._centralized
        networks = [instance.network for instance in self._network_backed]
        # The reference round model takes no window step: each arrival
        # goes through on_item and each message is delivered alone, as
        # under ReferenceEngine.
        steps = [
            (network, None if self.engine == "reference" else window_step(network))
            for network in networks
        ]
        ts_column = getattr(stream, "timestamps", None)
        registry = self.registry
        # Per-query fold clocks, allocated only when a live registry is
        # attached (timing is per (window, query) — the null registry
        # pays zero perf_counter calls).
        timings = [0.0] * len(steps) if registry.enabled else None
        span = registry.span("driver_run")
        # batch_windows is the same schedule ColumnarEngine iterates —
        # the source of the driver's run-for-run parity with it.
        with span:
            for lo, hi in batch_windows(
                n, self.batch_size, self.initial_batch_size, marks
            ):
                window = group_window(assignment, idents, weights, lo, hi)
                if timings is None:
                    for network, can_park in steps:
                        run_window(network, window, can_park)
                else:
                    for index, (network, can_park) in enumerate(steps):
                        t0 = time.perf_counter()
                        run_window(network, window, can_park)
                        timings[index] += time.perf_counter() - t0
                if centralized:
                    ts = None if ts_column is None else ts_column[lo:hi]
                    for instance in centralized:
                        instance.observe_columns(
                            idents[lo:hi], weights[lo:hi], ts
                        )
                for network in networks:
                    network.items_processed += hi - lo
                self.items_processed += hi - lo
                if hi in mark_set:
                    snapshots.append((base + hi, self.answers()))
        if timings is not None:
            self._export_run(timings, n)
        return MultiQueryResult(
            answers=self.answers(),
            counters=self.counters(),
            items_processed=self.items_processed,
            snapshots=snapshots,
        )

    def _export_run(self, timings, items: int) -> None:
        """Export one run's driver telemetry (live registry only)."""
        registry = self.registry
        fold = registry.counter(
            "repro_query_fold_seconds_total",
            "per-query seconds in the shared site-pass/fold loop",
            labels=("query",),
        )
        for instance, seconds in zip(self._network_backed, timings):
            fold.labels(query=instance.name).inc(seconds)
        registry.counter(
            "repro_driver_runs_total", "completed MultiQueryDriver runs"
        ).inc()
        registry.counter(
            "repro_driver_items_total",
            "stream arrivals replayed through the shared pass",
        ).inc(items)
        messages = registry.gauge(
            "repro_query_messages",
            "cumulative protocol messages per network-backed query",
            labels=("query", "direction"),
        )
        for name, counters in self.counters().items():
            messages.labels(query=name, direction="upstream").set(
                counters.upstream
            )
            messages.labels(query=name, direction="downstream").set(
                counters.downstream
            )
