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
deterministically derived RNG substream — the same sample a standalone
run with :func:`repro.query.backends.query_seed` would produce — while
the driver amortizes the columnar engine's per-batch work across all
of them:

* the per-site grouping of each window (one counting sort,
  :func:`~repro.runtime.batched.window_order`) and the gather of the
  site-sorted ident/weight columns are computed **once**, and every
  query's site gets its slice of those columns, exactly as
  :class:`~repro.runtime.ColumnarEngine` hands them out;
* queries backed by *same-config* weighted SWORs are **fused**: the
  batch's level indices, the early/regular split, and the shared early
  ``Item`` objects are computed once per (batch, site), leaving only
  the per-query exponential draws, threshold filtering, and coordinator
  work;
* control propagation follows the columnar engine's bounded-staleness
  contract exactly, so per-query message counts match a standalone
  columnar run message for message.

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

import numpy as _np

from ..common.errors import ConfigurationError
from ..common.rng import BatchRandom
from ..core.config import SworConfig
from ..core.levels import levels_of_array
from ..net.counters import MessageCounters
from ..net.messages import MessagePack
from ..obs import NULL_REGISTRY
from ..runtime.batched import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_INITIAL_BATCH_SIZE,
    batch_windows,
    window_order,
)
from ..stream.item import DistributedStream, Item
from .backends import (
    CentralizedQuery,
    CompiledQuery,
    NetworkBackedQuery,
    _SworBackedQuery,
    compile_query,
)
from .model import Query, QueryCatalog

__all__ = ["MultiQueryDriver", "MultiQueryResult"]


def _site_pass(network, site_id: int, idents, weights) -> None:
    """Run one site's share of a window and deliver the result — a
    whole pack, or its messages one by one, as
    :class:`~repro.runtime.ColumnarEngine` does.

    Batches go through the bulk hook ``on_columns``.  A single arrival
    goes straight to ``on_item`` (what ``on_columns`` would delegate
    to), whose result may be a lazy generator — the L1 site's, whose
    messages interleave with the broadcasts they trigger.  Keeping it
    off ``on_columns`` keeps every ``on_columns`` result sized, which
    the per-layer ledger in ``perfbench/`` relies on: it wraps
    ``on_columns`` and counts the entries each call returns.
    """
    site = network.sites[site_id]
    if len(weights) == 1:
        result = site.on_item(Item(int(idents[0]), float(weights[0])))
    else:
        result = site.on_columns(idents, weights)
    if isinstance(result, MessagePack):
        network.deliver_pack(site_id, result)
    else:
        for message in result:
            network.deliver_upstream(site_id, message)


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


class _GenericConsumer:
    """Drives one network-backed query through the shared batches the
    way a standalone :class:`~repro.runtime.ColumnarEngine` run of the
    same protocol would: the site's columnar hook, then delivery — so
    per-query samples and counters stay bit-identical to it (SWR,
    unweighted, and L1 queries all ride their native pack paths)."""

    __slots__ = ("instance", "network")

    def __init__(self, instance: NetworkBackedQuery) -> None:
        self.instance = instance
        self.network = instance.network

    def site_batch(self, site_id: int, idents, weights) -> None:
        _site_pass(self.network, site_id, idents, weights)


class _FusedSworGroup:
    """Shared site-side pass for same-config weighted-SWOR queries.

    For each (batch, site) the group computes once: the batch's level
    indices, the saturation split into early/regular arrivals, and the
    early arrivals' ``Item`` objects.  Each member query then only
    draws its own batch exponentials, filters on its own epoch
    threshold, and delivers a single
    :class:`~repro.net.messages.MessagePack` per (site, batch) through
    its own network's
    :meth:`~repro.runtime.network.Network.deliver_pack` — all members'
    packs aliasing the same early columns and the same early ``Item``
    memo — so the sample each member ends with is bit-identical to a
    standalone columnar run with the same seed, at a fraction of the
    site-side cost.

    Single-arrival batches (and any state divergence between members'
    site views — impossible for same-config members, but checked
    defensively) run each member's own site hook instead.
    """

    __slots__ = ("config", "members", "protocols", "_r")

    def __init__(
        self, config: SworConfig, members: List[NetworkBackedQuery]
    ) -> None:
        self.config = config
        self.members = members
        self.protocols = [
            m.protocol if isinstance(m, _SworBackedQuery) else m.tracker.protocol
            for m in members
        ]
        self._r = config.r

    def _fallback(self, site_id: int, idents, weights) -> None:
        for protocol in self.protocols:
            _site_pass(protocol.network, site_id, idents, weights)

    def site_batch(self, site_id: int, idents, weights) -> None:
        """One shared early/regular split, one pack per member query.

        Decision-for-decision and draw-for-draw identical to a
        standalone columnar run of each member: per member only the
        batch exponentials, the threshold filter, and the pack delivery
        remain.
        """
        n = len(weights)
        if n <= 1:
            self._fallback(site_id, idents, weights)
            return
        first = self.protocols[0].sites[site_id]
        mask = first._saturated_mask
        for protocol in self.protocols[1:]:
            if protocol.sites[site_id]._saturated_mask != mask:
                self._fallback(site_id, idents, weights)  # pragma: no cover - defensive
                return
        levels = levels_of_array(weights, self._r)
        early_idents = early_weights = early_levels = None
        regular_idents = regular_weights = None
        if mask:
            saturated = first._saturation_table(int(levels.max()))[levels]
            num_saturated = int(_np.count_nonzero(saturated))
            if num_saturated == n:
                regular_idents, regular_weights = idents, weights
            elif num_saturated == 0:
                early_idents, early_weights, early_levels = idents, weights, levels
            else:
                early = ~saturated
                early_idents = idents[early]
                early_weights = weights[early]
                early_levels = levels[early]
                regular_idents = idents[saturated]
                regular_weights = weights[saturated]
        else:
            early_idents, early_weights, early_levels = idents, weights, levels
        early_items = None
        if early_idents is not None:
            # One shared Item memo, parked by every member coordinator.
            early_items = [
                Item(ident, weight)
                for ident, weight in zip(
                    early_idents.tolist(), early_weights.tolist()
                )
            ]
        for protocol in self.protocols:
            site = protocol.sites[site_id]
            site.items_seen += n
            if regular_weights is None:
                pack = MessagePack(early_idents, early_weights, early_levels)
                pack.early_items = early_items
                protocol.network.deliver_pack(site_id, pack)
                continue
            threshold = site._threshold  # pre-flush view, like on_columns
            if site._batch_rng is None:
                site._batch_rng = BatchRandom(site._rng)
            m = len(regular_weights)
            draws = site._batch_rng.exponentials(m)
            site.exponentials_generated += m
            keys = _np.divide(regular_weights, draws, out=draws)
            send = keys > threshold
            num_send = int(_np.count_nonzero(send))
            if num_send == 0:
                if early_items is None:
                    continue
                pack = MessagePack(early_idents, early_weights, early_levels)
            elif num_send == m:
                pack = MessagePack(
                    early_idents,
                    early_weights,
                    early_levels,
                    regular_idents,
                    regular_weights,
                    keys,
                )
            else:
                pack = MessagePack(
                    early_idents,
                    early_weights,
                    early_levels,
                    regular_idents[send],
                    regular_weights[send],
                    keys[send],
                )
            pack.early_items = early_items
            protocol.network.deliver_pack(site_id, pack)


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
        the driver's fused multi-query pass is itself the execution
        engine and runs in-process (per-query results are bit-identical
        either way); shard-parallel *site* execution applies to
        single-protocol runs via :class:`~repro.runtime.ShardedEngine`.
    batch_size / initial_batch_size:
        Batch ramp, as in :class:`~repro.runtime.ColumnarEngine`;
        rejected under ``engine="reference"``, exactly as
        :func:`~repro.runtime.get_engine` rejects a reference engine
        with a batch size.
    confidence:
        Nominal CI level for all estimator-backed answers.
    fuse:
        Allow the fused same-config SWOR fast path (disable to force
        the generic per-query path, e.g. for benchmarking the fusion
        gain itself).
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
        fuse: bool = True,
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
        # Batch size 1 leaves a fused group nothing to share.
        self.fuse = fuse and engine != "reference"
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

    def _consumers(self) -> List[object]:
        """Group fusable same-config SWOR queries; others run generic."""
        fusable: Dict[SworConfig, List[NetworkBackedQuery]] = {}
        consumers: List[object] = []
        generic: List[NetworkBackedQuery] = []
        for instance in self._network_backed:
            config = getattr(instance, "fuse_config", None)
            if (
                self.fuse
                and config is not None
                and config.level_sets_enabled
                and not config.count_bits
            ):
                fusable.setdefault(config, []).append(instance)
            else:
                generic.append(instance)
        for config, members in fusable.items():
            if len(members) >= 2:
                consumers.append(_FusedSworGroup(config, members))
            else:
                generic.extend(members)
        consumers.extend(_GenericConsumer(instance) for instance in generic)
        return consumers

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
        for arrivals that reach a sample or a level set).

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
        marks: List[int] = (
            [t - base for t in sorted(set(checkpoints)) if base < t <= base + n]
            if checkpoints
            else []
        )
        mark_set = set(marks)
        snapshots: List[Tuple[int, Dict[str, object]]] = []
        consumers = self._consumers()
        centralized = self._centralized
        networks = [instance.network for instance in self._network_backed]
        ts_column = getattr(stream, "timestamps", None)
        registry = self.registry
        # Per-consumer fold clocks, allocated only when a live registry
        # is attached (timing is per (window, site, consumer) — the
        # null registry pays zero perf_counter calls).
        timings = [0.0] * len(consumers) if registry.enabled else None
        span = registry.span("driver_run")
        # batch_windows is the same schedule ColumnarEngine iterates —
        # the source of the driver's run-for-run parity with it.
        with span:
            for lo, hi in batch_windows(
                n, self.batch_size, self.initial_batch_size, marks
            ):
                self._run_window(
                    consumers, assignment, weights, idents, lo, hi, timings
                )
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
            self._export_run(consumers, timings, n)
        return MultiQueryResult(
            answers=self.answers(),
            counters=self.counters(),
            items_processed=self.items_processed,
            snapshots=snapshots,
        )

    @staticmethod
    def _run_window(
        consumers: List[object],
        assignment,
        weights,
        idents,
        lo: int,
        hi: int,
        timings: Optional[List[float]] = None,
    ) -> None:
        """One grouping and one gather of the window serve *every*
        query's sites: each site gets its slice of the window's
        site-sorted columns, as :class:`~repro.runtime.ColumnarEngine`
        hands them out."""
        positions, site_ids, run_starts, run_ends = window_order(
            assignment, lo, hi
        )
        weights_sorted = weights[positions]
        idents_sorted = idents[positions]
        for site_id, start, end in zip(site_ids, run_starts, run_ends):
            site_idents = idents_sorted[start:end]
            site_weights = weights_sorted[start:end]
            if timings is None:
                for consumer in consumers:
                    consumer.site_batch(site_id, site_idents, site_weights)
            else:
                for index, consumer in enumerate(consumers):
                    t0 = time.perf_counter()
                    consumer.site_batch(site_id, site_idents, site_weights)
                    timings[index] += time.perf_counter() - t0

    def _export_run(self, consumers, timings, items: int) -> None:
        """Export one run's driver telemetry (live registry only)."""
        registry = self.registry
        fold = registry.counter(
            "repro_query_fold_seconds_total",
            "per-query seconds in the shared site-pass/fold loop "
            "(fused groups are labeled name1+name2+...)",
            labels=("query",),
        )
        for consumer, seconds in zip(consumers, timings):
            if isinstance(consumer, _FusedSworGroup):
                label = "+".join(m.name for m in consumer.members)
            else:
                label = consumer.instance.name
            fold.labels(query=label).inc(seconds)
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
