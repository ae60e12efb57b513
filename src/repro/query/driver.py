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

The batch schedule is the driver's engine's
(:func:`~repro.runtime.batched.batch_windows`: doubling ramp,
checkpoint-exact splits), so a driver with a single query is
bit-identical to a standalone run under the same
:class:`~repro.runtime.ColumnarEngine` — and with ``engine="reference"``
(batch size 1) to the reference engine.  A pass ends in one run record
on that engine (:meth:`~repro.runtime.base.Engine._record_run`), the
record every engine run ends in.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..common.errors import ConfigurationError
from ..net.counters import MessageCounters
from ..runtime import ColumnarEngine, Engine, ReferenceEngine, get_engine
from ..runtime.batched import batch_windows, checkpoint_marks
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
        An engine name or :class:`~repro.runtime.base.Engine` instance,
        resolved by :func:`~repro.runtime.get_engine` as the protocol
        facades resolve theirs.  ``"columnar"`` (the default) runs the
        pass on the batch schedule and zero-object pack data plane of
        :class:`~repro.runtime.ColumnarEngine`; ``"reference"`` runs
        the same plane at batch size 1 — the synchronous round model,
        bit-identical to :class:`~repro.runtime.ReferenceEngine`.  A
        :class:`~repro.runtime.ShardedEngine` sets the schedule and the
        pass runs in-process (per-query results are bit-identical
        either way); shard-parallel *site* execution applies to
        single-protocol runs.  An engine instance brings its own ramp
        (``batch_size`` and ``initial_batch_size``).
    batch_size:
        Steady-state batch size, passed to
        :func:`~repro.runtime.get_engine` with an engine name.
    confidence:
        Nominal CI level for all estimator-backed answers.

    Each :meth:`run` records the pass once on the engine
    (``engine.last_run_stats``, see :mod:`repro.runtime.base`): its
    ``items``, ``seconds`` and ``windows``, and per network-backed
    query its fold seconds and message counts, exported like any run
    of an instrumented engine (:meth:`~repro.runtime.base.Engine.instrument`).
    Answers and counters are bit-identical on an instrumented engine
    and a plain one.
    """

    def __init__(
        self,
        queries: Union[QueryCatalog, Iterable[Query]],
        num_sites: int,
        seed: Optional[int] = None,
        engine: Union[str, Engine] = "columnar",
        batch_size: Optional[int] = None,
        confidence: float = 0.95,
    ) -> None:
        if num_sites <= 0:
            raise ConfigurationError(f"num_sites must be positive, got {num_sites}")
        engine = get_engine(engine, batch_size=batch_size)
        if not isinstance(engine, (ColumnarEngine, ReferenceEngine)):
            raise ConfigurationError(
                f"the multi-query driver runs on the columnar or reference "
                f"schedule, not on engine {engine.name!r}"
            )
        catalog = (
            queries if isinstance(queries, QueryCatalog) else QueryCatalog(list(queries))
        )
        if len(catalog) == 0:
            raise ConfigurationError("need at least one query")
        self.catalog = catalog
        self.num_sites = num_sites
        self.seed = seed
        self.engine = engine
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
        t_run = time.perf_counter()
        assignment, weights, idents = stream.arrays()
        n = len(stream)
        base = self.items_processed
        marks: List[int] = checkpoint_marks(checkpoints, base, n) if checkpoints else []
        mark_set = set(marks)
        snapshots: List[Tuple[int, Dict[str, object]]] = []
        centralized = self._centralized
        networks = [instance.network for instance in self._network_backed]
        engine = self.engine
        # The reference round model takes no window step and batches
        # one arrival: each arrival goes through on_item and each
        # message is delivered alone, as under ReferenceEngine.
        if isinstance(engine, ColumnarEngine):
            sizes = (engine.batch_size, engine.initial_batch_size)
            steps = [(network, window_step(network)) for network in networks]
        else:
            sizes = (1, 1)
            steps = [(network, None) for network in networks]
        ts_column = getattr(stream, "timestamps", None)
        fold_seconds = [0.0] * len(steps)
        windows = 0
        # batch_windows is the same schedule ColumnarEngine iterates —
        # the source of the driver's run-for-run parity with it.
        for lo, hi in batch_windows(n, *sizes, marks):
            window = group_window(assignment, idents, weights, lo, hi)
            for index, (network, can_park) in enumerate(steps):
                t0 = time.perf_counter()
                run_window(network, window, can_park)
                fold_seconds[index] += time.perf_counter() - t0
            if centralized:
                ts = None if ts_column is None else ts_column[lo:hi]
                for instance in centralized:
                    instance.observe_columns(idents[lo:hi], weights[lo:hi], ts)
            for network in networks:
                network.items_processed += hi - lo
            self.items_processed += hi - lo
            windows += 1
            if hi in mark_set:
                snapshots.append((base + hi, self.answers()))
        engine._record_run(
            None,
            n,
            time.perf_counter() - t_run,
            windows=windows,
            queries={
                instance.name: {
                    "fold_seconds": seconds,
                    "upstream": instance.counters.upstream,
                    "downstream": instance.counters.downstream,
                }
                for instance, seconds in zip(self._network_backed, fold_seconds)
            },
        )
        return MultiQueryResult(
            answers=self.answers(),
            counters=self.counters(),
            items_processed=self.items_processed,
            snapshots=snapshots,
        )
