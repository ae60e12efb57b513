"""Bridges from existing accounting onto the metrics registry.

The package already measures a lot — every run produces a
:class:`~repro.net.counters.MessageCounters`, and the sharded engine
keeps a ``last_run_stats`` dict — but none of it was exported in a
scrape-able form.  This module maps those structures onto registry
metrics **without changing their public shapes**:

* :func:`observe_message_counters` — message totals / words / per-kind
  counts as gauges (counters are cumulative per network, so last-write
  gauges re-export safely after every run);
* :func:`observe_sharded_stats` — the sharded engine's
  ``last_run_stats`` (windows, rollbacks, speculation verdicts, phase
  timings) as counters, so the dict and the registry can never drift:
  one is computed from the other's inputs.

The name mapping is documented in the README's "Observability" section
and pinned by the golden metric-name test in ``tests/test_obs.py``.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "observe_message_counters",
    "observe_sharded_stats",
    "observe_fault",
    "observe_recovery",
    "observe_degradation",
    "observe_heartbeat_age",
    "merge_worker_deltas",
    "WORKER_METRIC_NAMES",
]

#: The fixed schema of the per-window metric columns a shard worker
#: ships back with its results (see ``repro.runtime.sharded``): a flat
#: value vector in this exact order, merged into the parent registry as
#: ``repro_shard_worker_<name>_total{worker=...}`` at window commit.
WORKER_METRIC_NAMES = (
    "windows",
    "packs",
    "pack_entries",
    "ring_bytes",
    "compute_seconds",
    "snapshots",
    "rolls_served",
    "spec_recomputes",
    "replay_windows",
)


def observe_message_counters(registry, counters, engine: str) -> None:
    """Export one network's cumulative message accounting.

    Gauge semantics (set, not inc): ``MessageCounters`` accumulate
    across ``run()`` calls on a reused network, so re-exporting after
    every run stays idempotent.
    """
    if not registry.enabled:
        return
    messages = registry.gauge(
        "repro_messages",
        "cumulative protocol messages by direction (the paper's metric)",
        labels=("engine", "direction"),
    )
    messages.labels(engine=engine, direction="upstream").set(counters.upstream)
    messages.labels(engine=engine, direction="downstream").set(
        counters.downstream
    )
    registry.gauge(
        "repro_message_words",
        "cumulative machine words carried by all counted messages",
        labels=("engine",),
    ).labels(engine=engine).set(counters.words)
    registry.gauge(
        "repro_message_words_max",
        "largest single message seen, in words (Proposition 7 audit)",
        labels=("engine",),
    ).labels(engine=engine).set(counters.max_message_words)
    by_kind = registry.gauge(
        "repro_messages_by_kind",
        "cumulative protocol messages by kind",
        labels=("engine", "kind"),
    )
    for kind, count in counters.by_kind.items():
        by_kind.labels(engine=engine, kind=kind).set(count)


def observe_sharded_stats(registry, stats: Dict[str, object]) -> None:
    """Export one sharded run's ``last_run_stats`` onto the registry.

    Name mapping (each counter *adds* the run's delta, so a long-lived
    engine accumulates across runs):

    ==============================  =====================================
    ``last_run_stats`` key           metric
    ==============================  =====================================
    ``windows``                      ``repro_shard_windows_total``
    ``rollbacks``                    ``repro_shard_rollbacks_total``
    ``controls``                     ``repro_shard_controls_total``
    ``speculation.hits``             ``repro_shard_speculation_total{verdict="hit"}``
    ``speculation.misses``           ``repro_shard_speculation_total{verdict="miss"}``
    ``timing.<phase>_seconds``       ``repro_shard_phase_seconds_total{phase=...}``
    ==============================  =====================================
    """
    if not registry.enabled or stats.get("mode") != "sharded":
        return
    registry.counter(
        "repro_shard_windows_total", "batch windows folded by the parent"
    ).inc(stats.get("windows", 0))
    registry.counter(
        "repro_shard_rollbacks_total",
        "mid-window broadcasts that forced a worker suffix rollback",
    ).inc(stats.get("rollbacks", 0))
    registry.counter(
        "repro_shard_controls_total",
        "control messages carried by window commits",
    ).inc(stats.get("controls", 0))
    speculation = stats.get("speculation")
    if speculation is not None:
        verdicts = registry.counter(
            "repro_shard_speculation_total",
            "speculative window verdicts at commit",
            labels=("verdict",),
        )
        verdicts.labels(verdict="hit").inc(speculation["hits"])
        verdicts.labels(verdict="miss").inc(speculation["misses"])
    timing = stats.get("timing") or {}
    phases = registry.counter(
        "repro_shard_phase_seconds_total",
        "cumulative seconds per sharded window phase",
        labels=("phase",),
    )
    for key, seconds in timing.items():
        phases.labels(phase=key.replace("_seconds", "")).inc(seconds)
    per_window = stats.get("per_window") or ()
    if per_window:
        window_hist = registry.histogram(
            "repro_shard_window_seconds",
            "per-window phase durations across the run",
            labels=("phase",),
        )
        for entry in per_window:
            for key, value in entry.items():
                if key.endswith("_seconds"):
                    window_hist.labels(phase=key[:-8]).observe(value)


def observe_fault(registry, fault_class: str) -> None:
    """Count one classified worker fault (``crash``/``hang``/``poison``)
    detected by the sharded supervisor."""
    if not registry.enabled:
        return
    registry.counter(
        "repro_shard_faults_total",
        "worker faults classified by the sharded supervisor",
        labels=("fault_class",),
    ).labels(fault_class=fault_class).inc()


def observe_recovery(registry, worker: int, seconds: float) -> None:
    """Record one completed window-boundary recovery (respawn + state
    re-ship + replay + survivor rewind) and its wall-clock cost."""
    if not registry.enabled:
        return
    registry.counter(
        "repro_shard_worker_restarts_total",
        "shard workers respawned by the supervisor after a fault",
        labels=("worker",),
    ).labels(worker=worker).inc()
    registry.histogram(
        "repro_shard_recovery_seconds",
        "wall-clock seconds per deterministic worker recovery",
    ).observe(seconds)


def observe_degradation(registry, rung: str) -> None:
    """Count one rung taken on the graceful-degradation ladder (the
    in-process ``columnar`` engine) after recovery was exhausted or
    unavailable."""
    if not registry.enabled:
        return
    registry.counter(
        "repro_shard_degradations_total",
        "sharded runs degraded to a slower rung after fault recovery "
        "was exhausted",
        labels=("rung",),
    ).labels(rung=rung).inc()


def observe_heartbeat_age(registry, worker: int, seconds: float) -> None:
    """Export one worker's heartbeat age (seconds since its last
    message reached the supervisor; refreshed at every window commit)."""
    if not registry.enabled:
        return
    registry.gauge(
        "repro_shard_worker_heartbeat_age_seconds",
        "seconds since each shard worker's last message, at last export",
        labels=("worker",),
    ).labels(worker=worker).set(seconds)


def merge_worker_deltas(registry, worker: int, deltas) -> None:
    """Fold one worker's per-window metric columns into the registry.

    ``deltas`` is the flat value vector matching
    :data:`WORKER_METRIC_NAMES` position for position (the wire form a
    worker appends to its result messages when metrics are enabled).
    """
    for name, value in zip(WORKER_METRIC_NAMES, deltas):
        if value:
            registry.counter(
                f"repro_shard_worker_{name}_total",
                f"per-worker {name.replace('_', ' ')} (shipped as columns "
                "with window results, merged at commit)",
                labels=("worker",),
            ).labels(worker=worker).inc(value)
