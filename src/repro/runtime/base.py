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

An engine carries no metrics registry (``registry`` is ``None``)
until :meth:`Engine.instrument` attaches a
:class:`~repro.obs.MetricsRegistry`.  It keeps one run record,
``last_run_stats``: a plain dict that every ``run()``, and every
:class:`~repro.query.MultiQueryDriver` pass on the engine, assigns
exactly once, through :meth:`Engine._record_run`, at its end.
:meth:`Engine.format_stats` renders any record, and
:func:`repro.obs.export_run` maps it (plus the run's message counters)
onto the attached registry; nothing else describes a run.  The keys:

* every record: ``engine``, ``items``, ``seconds`` (the whole
  ``run()`` call's or driver pass's wall);
* windowed runs and driver passes: ``windows``; in-process columnar
  windows also ``windows_whole`` / ``windows_split`` /
  ``windows_per_site``;
* a driver pass: ``queries``, which maps each network-backed query's
  name to its ``fold_seconds`` (the pass's seconds in that query's
  window body) and its cumulative ``upstream`` and ``downstream``
  message counts;
* every sharded run: ``mode`` — ``"sharded"``, or ``"fallback"``,
  ``"degraded"`` or ``"failed"`` with its ``reason`` (a degraded run
  adds ``degraded_to``; a failed one, recorded before it raises,
  counts in ``items`` only the arrivals of its committed windows) —
  and, when supervised, ``supervision`` and any classified ``faults``;
* a run that ran sharded: ``workers``, ``warm_pool``,
  ``setup_seconds`` (getting the worker pool, spawned when not warm,
  and shipping each worker its shard; part of ``seconds``),
  ``rollbacks``, ``speculation``, ``per_window`` rows and the
  ``controls`` and per-phase ``timing`` totals summed from them,
  ``per_worker`` rows, and ``shm_segments``.  A worker's compute
  seconds (``timing["worker_compute_seconds"]``, its row's
  ``compute_seconds``) cover its pre-window snapshot and its site
  pass.

Instrumentation is observational only: samples and message counters
are bit-identical with a live registry and without one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from ..obs import export_run

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.counters import MessageCounters
    from ..obs import MetricsRegistry
    from ..stream.item import DistributedStream
    from .network import Network

__all__ = ["Engine"]

#: The leading phrase :meth:`Engine.format_stats` gives each ``mode``
#: of a sharded run that did not run sharded.
_MODE_PHRASES = {
    "fallback": "ran in fallback mode",
    "degraded": "degraded to the columnar rung",
    "failed": "failed",
}


class Engine(ABC):
    """An execution strategy for replaying a stream through a network."""

    #: Registry name (``"reference"``, ``"columnar"``, ...).
    name: str = "abstract"

    #: The attached metrics registry; ``None`` until
    #: :meth:`instrument` attaches one.
    registry: Optional["MetricsRegistry"] = None

    #: The last ``run()``'s record (see the module docstring).  Empty
    #: until the first run.
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
        batching thereof), keep ``network.items_processed`` current,
        fire ``on_checkpoint(t)`` exactly at each requested ``t``, and
        end by calling :meth:`_record_run` once.
        """

    def instrument(self, registry) -> "Engine":
        """Attach a metrics registry (``None`` detaches); returns
        ``self`` so construction chains::

            engine = get_engine("columnar").instrument(registry)
        """
        self.registry = registry
        return self

    def _record_run(
        self,
        counters: Optional["MessageCounters"],
        items: int,
        seconds: float,
        per_window: Optional[List[dict]] = None,
        **fields,
    ) -> None:
        """Build the run's record — the one place ``last_run_stats`` is
        assigned — and export it, with the run's message ``counters``
        (``None`` for a driver pass), onto the attached registry.

        ``fields`` are the engine's (or the driver's) own keys.
        ``per_window`` rows (one per committed sharded window) are kept
        as given and summed into the record's ``controls`` and
        per-phase ``timing`` totals (each row's ``*_seconds`` keys)."""
        stats: Dict[str, object] = {
            "engine": self.name,
            "items": items,
            "seconds": seconds,
            **fields,
        }
        if per_window is not None:
            timing: Dict[str, float] = {}
            for row in per_window:
                for key, value in row.items():
                    if key.endswith("_seconds"):
                        timing[key] = timing.get(key, 0.0) + value
            stats["controls"] = sum(row["controls"] for row in per_window)
            stats["timing"] = timing
            stats["per_window"] = per_window
        self.last_run_stats = stats
        if self.registry is not None:
            export_run(self.registry, stats, counters)

    def format_stats(self) -> str:
        """A human-readable rendering of :attr:`last_run_stats` —
        printed by ``repro ... --profile`` and ``repro stats``.  Safe
        on an engine that has been constructed but never run."""
        stats = self.last_run_stats
        if not stats:
            return f"{self.name} engine: no run recorded yet"
        line = f"items {stats['items']}"
        if "windows" in stats:
            line += f", windows {stats['windows']}"
        lines = [line + f", wall {stats['seconds']:.3f}s"]
        mode = stats.get("mode")
        if mode in _MODE_PHRASES:
            lines.insert(0, f"{_MODE_PHRASES[mode]} ({stats['reason']})")
        if "windows_whole" in stats:
            lines.append(
                f"window step: {stats['windows_whole']} folded whole, "
                f"{stats['windows_split']} split on an epoch advance, "
                f"{stats['windows_per_site']} per site"
            )
        if "queries" in stats:
            lines.append(
                "fold: "
                + ", ".join(
                    f"{name} {row['fold_seconds']:.3f}s"
                    for name, row in stats["queries"].items()
                )
            )
        if mode == "sharded":
            spec = stats["speculation"]
            timing = stats["timing"]
            lines += [
                f"{stats['workers']} workers: "
                f"rollbacks {stats['rollbacks']}, controls {stats['controls']}",
                f"speculation: {spec['hits']} hits, {spec['misses']} misses",
                f"setup {stats['setup_seconds']:.3f}s "
                f"({'warm' if stats['warm_pool'] else 'cold'} pool)",
                f"time: worker compute {timing['worker_compute_seconds']:.3f}s, "
                f"transport wait {timing['transport_wait_seconds']:.3f}s, "
                f"parent fold {timing['parent_fold_seconds']:.3f}s",
            ]
        return f"{self.name} engine: " + "\n  ".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
