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

Every run has one lifecycle, :meth:`Engine.run` (and, for a
:class:`~repro.query.MultiQueryDriver` pass, :meth:`Engine._run`): it
refuses a stream whose site count differs from the network's before
any site runs, computes the checkpoint marks once, takes a run-start
checkpoint (:meth:`~repro.runtime.network.Network.snapshot_state`:
every site's and the coordinator's ``snapshot_state()``, the counters
and ``items_processed``; for a driver pass, every query network's and
centralized sampler's), and times the engine's :meth:`Engine._replay`.
A run that raises is rewound to that checkpoint, recorded as failed,
and the error re-raised, so a failed run leaves the state of the
prefix before it under every engine.  An actor whose snapshot raises
(a default snapshot pickles, and some state does not) leaves the run
without a checkpoint: it runs all the same, and a failure is recorded
without the rewind.

An engine carries no metrics registry (``registry`` is ``None``)
until :meth:`Engine.instrument` attaches a
:class:`~repro.obs.MetricsRegistry`.  It keeps one run record,
``last_run_stats``: a plain dict that every ``run()``, and every
driver pass on the engine, assigns exactly once, through
:meth:`Engine._record_run`, at its end.  :meth:`Engine.format_stats`
renders any record, and :func:`repro.obs.export_run` maps it (plus the
run's message counters) onto the attached registry; nothing else
describes a run.  The keys:

* every record: ``engine``, ``items``, ``seconds`` (the whole
  ``run()`` call's or driver pass's wall, its checkpoint included);
* a failed run, under any engine: ``mode="failed"`` and a one-line
  ``reason`` (the error's class and first line, and ``"(not rewound:
  ...)"`` when the run had no checkpoint); its ``items`` count the
  arrivals it had processed when it raised, before the rewind;
* windowed runs and driver passes: ``windows``; an in-process
  columnar run also ``windows_whole`` / ``windows_split`` /
  ``windows_per_site`` (windows folded as one pack, windows cut at a
  control, windows of networks without the SWOR window step) and
  ``cut_runs`` (the runs the step delivered alone);
* a driver pass: ``queries``, which maps each network-backed query's
  name to its ``fold_seconds`` (the pass's seconds in that query's
  window body) and its cumulative ``upstream`` and ``downstream``
  message counts;
* every sharded run: ``mode`` — ``"sharded"``, or ``"fallback"``,
  ``"degraded"`` or ``"failed"`` with its one-line ``reason``; a
  degraded run, and a run failed by a worker fault, also logs its one
  worker fault in ``faults`` (``worker``, ``window``,
  ``fault_class``, ``detail``) and takes the fault's ``reason``.  A
  crash, hang or poison degrades the run (it adds ``degraded_to``); a
  worker ``error``, or any fault of a run without a run-start
  checkpoint, fails it;
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

import time
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from ..common.errors import ConfigurationError
from ..obs import export_run
from .batched import checkpoint_marks

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.counters import MessageCounters
    from ..obs import MetricsRegistry
    from ..stream.item import DistributedStream
    from .network import Network

__all__ = ["Engine"]

#: The leading phrase :meth:`Engine.format_stats` gives a failed run,
#: and each ``mode`` of a sharded run that did not run sharded.
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

    def run(
        self,
        network: "Network",
        stream: "DistributedStream",
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "MessageCounters":
        """Replay ``stream`` through ``network``; return its counters.

        The one run lifecycle (see the module docstring): a run that
        raises is rewound to its run-start checkpoint and recorded as
        failed before the error propagates.  ``on_step(t)`` fires as
        the engine's windows (or arrivals) commit, and
        ``on_checkpoint(t)`` exactly at each ``t`` in ``checkpoints``
        that falls inside this run."""
        self._run(
            network,
            network.counters,
            stream,
            checkpoints if on_checkpoint is not None else None,
            lambda marks, checkpoint: self._replay(
                network, stream, on_step, marks, on_checkpoint, checkpoint
            ),
        )
        return network.counters

    @abstractmethod
    def _replay(
        self, network, stream, on_step, marks, on_checkpoint, checkpoint
    ) -> dict:
        """The engine's replay: process ``stream`` in global arrival
        order (or a batching thereof), keep ``network.items_processed``
        current, call ``on_checkpoint(t)`` after exactly each stream
        offset in ``marks``, and return the record's engine keys.

        ``checkpoint`` is the run-start checkpoint, ``None`` when a
        snapshot raised; an engine that rewinds and reruns (the sharded
        degradation) restores it."""

    def _run(self, target, counters, stream, checkpoints, replay) -> None:
        """Check, checkpoint, time and record one run of ``replay(marks,
        checkpoint)`` over ``target`` — a network, or a multi-query
        driver: anything with ``num_sites``, ``items_processed`` and
        ``snapshot_state()`` / ``restore_state()``.  ``counters`` are
        the run's message counters (``None`` for a driver pass)."""
        if stream.num_sites != target.num_sites:
            raise ConfigurationError(
                f"stream has {stream.num_sites} sites, "
                f"{type(target).__name__} has {target.num_sites}"
            )
        t0 = time.perf_counter()
        n = len(stream)
        base = target.items_processed
        marks = [] if checkpoints is None else checkpoint_marks(checkpoints, base, n)
        try:
            checkpoint, unsaved = target.snapshot_state(), None
        except Exception as exc:
            checkpoint, unsaved = None, exc
        try:
            fields = replay(marks, checkpoint)
        except BaseException as error:
            items = target.items_processed - base
            fields = self._failed_fields(error)
            if checkpoint is None:
                fields["reason"] += f" (not rewound: {_one_line(unsaved)})"
            else:
                target.restore_state(checkpoint)
            self._record_run(
                counters, items, time.perf_counter() - t0, mode="failed", **fields
            )
            raise
        self._record_run(counters, n, time.perf_counter() - t0, **fields)

    def _failed_fields(self, error: BaseException) -> dict:
        """The failed record's ``reason`` (and any engine keys) for the
        error that ended a run."""
        return {"reason": _one_line(error)}

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
                f"{stats['windows_split']} cut at a control "
                f"({stats['cut_runs']} runs delivered alone), "
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


def _one_line(error: BaseException) -> str:
    """An error's class and the first line of its message."""
    text = str(error).strip()
    name = type(error).__name__
    return f"{name}: {text.splitlines()[0]}" if text else name
