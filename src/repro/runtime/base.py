"""The execution-engine abstraction.

An :class:`Engine` decides *how* a :class:`~repro.runtime.network.Network`
replays a :class:`~repro.stream.item.DistributedStream`: per-item or in
batches, with synchronous or boundary-deferred control propagation.  The
protocol state machines never see the engine — they only see their
``on_item`` / ``on_columns`` / ``on_control`` / ``on_message`` hooks
fire in some order, and every engine routes messages through the
network's delivery primitives so counters and traces stay comparable
across engines.

The package ships one scalar oracle and one vectorized data plane:

* :class:`~repro.runtime.reference.ReferenceEngine` — the paper's
  strictly synchronous round model (Section 2.1);
* :class:`~repro.runtime.columnar.ColumnarEngine` — batch windows of
  columns with bounded-staleness control propagation, and its
  multiprocess variant :class:`~repro.runtime.sharded.ShardedEngine`.

Every engine carries a metrics registry (:mod:`repro.obs`) — the
disabled :data:`~repro.obs.NULL_REGISTRY` by default, a live
:class:`~repro.obs.MetricsRegistry` after
:meth:`Engine.instrument` — plus a ``last_run_stats`` dict and a
:meth:`Engine.format_stats` rendering of it.  Instrumentation is
observational only: samples and message counters are bit-identical
with a live registry and without one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional

from ..obs import NULL_REGISTRY, observe_message_counters

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.counters import MessageCounters
    from ..stream.item import DistributedStream
    from .network import Network

__all__ = ["Engine"]


class Engine(ABC):
    """An execution strategy for replaying a stream through a network."""

    #: Registry name (``"reference"``, ``"columnar"``, ...).
    name: str = "abstract"

    #: The telemetry sink (class default: the shared no-op registry, so
    #: un-instrumented engines pay nothing and need no None checks).
    registry = NULL_REGISTRY

    #: How the last ``run()`` executed — engine name, item count, wall
    #: seconds; the sharded engine adds its window/rollback/speculation
    #: breakdown.  Empty until the first run.
    last_run_stats: Dict[str, object] = {}

    @abstractmethod
    def run(
        self,
        network: "Network",
        stream: "DistributedStream",
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "MessageCounters":
        """Replay ``stream`` through ``network``; return its counters.

        Implementations must process items in global arrival order (or a
        batching thereof), keep ``network.items_processed`` current, and
        fire ``on_checkpoint(t)`` exactly at each requested ``t``.
        """

    def instrument(self, registry) -> "Engine":
        """Attach a metrics registry (``None`` detaches); returns
        ``self`` so construction chains::

            engine = get_engine("columnar").instrument(registry)
        """
        self.registry = NULL_REGISTRY if registry is None else registry
        return self

    def _record_run(
        self,
        network: "Network",
        items: int,
        seconds: float,
        windows: Optional[int] = None,
    ) -> None:
        """Book one completed ``run()``: refresh ``last_run_stats`` and
        export the run onto the registry (engine-labeled run/item
        counters, a run-duration histogram, and the network's message
        accounting).  A sharded fallback's ``{"mode": "fallback",
        "reason": ...}`` marker — or the supervisor's ``"degraded"``
        marker — survives the refresh so diagnostics keep explaining
        *why* the in-process path ran.
        """
        stats: Dict[str, object] = {
            "engine": self.name,
            "items": items,
            "seconds": seconds,
        }
        if windows is not None:
            stats["windows"] = windows
        prior = self.last_run_stats
        if prior.get("mode") in ("fallback", "degraded") and "engine" not in prior:
            stats = {**prior, **stats}
        self.last_run_stats = stats
        self._export_run(network, items, seconds, windows)

    def _export_run(
        self,
        network: "Network",
        items: int,
        seconds: float,
        windows: Optional[int] = None,
    ) -> None:
        """The registry half of :meth:`_record_run` (engines that build
        their own ``last_run_stats``, like the sharded one, call this
        directly)."""
        registry = self.registry
        if not registry.enabled:
            return
        registry.counter(
            "repro_engine_runs_total",
            "completed engine run() calls",
            labels=("engine",),
        ).labels(engine=self.name).inc()
        registry.counter(
            "repro_engine_items_total",
            "stream arrivals replayed",
            labels=("engine",),
        ).labels(engine=self.name).inc(items)
        if windows is not None:
            registry.counter(
                "repro_engine_windows_total",
                "batch windows driven through the sites",
                labels=("engine",),
            ).labels(engine=self.name).inc(windows)
        registry.histogram(
            "repro_engine_run_seconds",
            "wall-clock duration of engine run() calls",
            labels=("engine",),
        ).labels(engine=self.name).observe(seconds)
        observe_message_counters(registry, network.counters, self.name)

    def format_stats(self) -> str:
        """A human-readable rendering of :attr:`last_run_stats` —
        printed by ``repro ... --profile``.  Safe on an engine that has
        been constructed but never run."""
        stats = self.last_run_stats
        if not stats:
            return f"{self.name} engine: no run recorded yet"
        parts = [f"items {stats['items']}"]
        if "windows" in stats:
            parts.append(f"windows {stats['windows']}")
        parts.append(f"wall {stats['seconds']:.3f}s")
        line = f"{self.name} engine: " + ", ".join(parts)
        if stats.get("mode") == "fallback":
            line += f"\n  (fallback: {stats.get('reason', 'unknown reason')})"
        return line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
