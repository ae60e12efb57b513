"""The bridge from a run record onto the metrics registry.

Every engine ``run()`` and every multi-query driver pass ends in one
record, ``last_run_stats`` (see :mod:`repro.runtime.base`), and every
network keeps a cumulative :class:`~repro.net.counters.MessageCounters`.
:func:`export_run` maps the two onto registry metrics; it is the
README's record→metric table (section "Observability") written as code:

* each record: ``repro_engine_runs_total``, and its ``items``,
  ``seconds`` and ``windows``: ``repro_engine_items_total``,
  ``repro_engine_run_seconds``, ``repro_engine_windows_total`` (all
  labeled ``{engine}``);
* the network's ``MessageCounters`` (an engine run's; a driver pass
  has none): the ``repro_messages{engine,direction}``,
  ``repro_message_words``, ``repro_message_words_max`` and
  ``repro_messages_by_kind{engine,kind}`` gauges;
* a driver pass's ``queries``: ``repro_query_fold_seconds_total{query}``
  and the ``repro_query_messages{query,direction}`` gauges;
* ``mode="fallback"`` and its ``reason``:
  ``repro_shard_fallbacks_total{reason}``; ``mode="degraded"`` and
  ``degraded_to``: ``repro_shard_degradations_total{rung}``; each of
  ``faults``: ``repro_shard_faults_total{fault_class}``;
* a sharded run's ``rollbacks`` and ``controls``:
  ``repro_shard_rollbacks_total``, ``repro_shard_controls_total``;
  ``speculation``: ``repro_shard_speculation_total{verdict}``;
  ``timing`` and ``per_window``:
  ``repro_shard_phase_seconds_total{phase}`` and the
  ``repro_shard_window_seconds{phase}`` histogram; ``per_worker``:
  ``repro_shard_worker_{compute_seconds,packs,pack_entries,
  rolls_served}_total{worker}``.

The name list is pinned by the golden metric-name test in
``tests/test_obs.py``.
"""

from __future__ import annotations

__all__ = ["export_run"]

#: The per-worker figures of a sharded record, each counted by the
#: parent from what it receives: ``(row key, family, help)``.
_WORKER_FAMILIES = (
    (
        "compute_seconds",
        "repro_shard_worker_compute_seconds_total",
        "per-worker compute seconds reported in its window results",
    ),
    (
        "packs",
        "repro_shard_worker_packs_total",
        "per-worker pack descriptors decoded by the parent",
    ),
    (
        "pack_entries",
        "repro_shard_worker_pack_entries_total",
        "per-worker messages in the decoded pack descriptors",
    ),
    (
        "rolls_served",
        "repro_shard_worker_rolls_served_total",
        "per-worker rollbacks sent by the parent",
    ),
)


def export_run(registry, stats, counters) -> None:
    """Export one run record (an engine's ``last_run_stats``) and its
    network's message counters, ``None`` for a driver pass (the mapping
    is the module docstring's).

    Counters add the run's figures, so a long-lived engine accumulates
    across runs.  The message figures are gauges (set, not added):
    ``MessageCounters`` accumulate across ``run()`` calls on a reused
    network, so re-exporting them after every run stays idempotent.
    """
    engine = stats["engine"]
    registry.counter(
        "repro_engine_runs_total",
        "recorded engine run() calls",
        labels=("engine",),
    ).labels(engine=engine).inc()
    registry.counter(
        "repro_engine_items_total",
        "stream arrivals replayed",
        labels=("engine",),
    ).labels(engine=engine).inc(stats["items"])
    if "windows" in stats:
        registry.counter(
            "repro_engine_windows_total",
            "batch windows driven through the sites",
            labels=("engine",),
        ).labels(engine=engine).inc(stats["windows"])
    registry.histogram(
        "repro_engine_run_seconds",
        "wall-clock duration of engine run() calls",
        labels=("engine",),
    ).labels(engine=engine).observe(stats["seconds"])
    if counters is not None:
        messages = registry.gauge(
            "repro_messages",
            "cumulative protocol messages by direction (the paper's metric)",
            labels=("engine", "direction"),
        )
        messages.labels(engine=engine, direction="upstream").set(
            counters.upstream
        )
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
    if "queries" in stats:
        fold = registry.counter(
            "repro_query_fold_seconds_total",
            "per-query seconds in the shared site-pass/fold loop",
            labels=("query",),
        )
        query_messages = registry.gauge(
            "repro_query_messages",
            "cumulative protocol messages per network-backed query",
            labels=("query", "direction"),
        )
        for name, row in stats["queries"].items():
            fold.labels(query=name).inc(row["fold_seconds"])
            for direction in ("upstream", "downstream"):
                query_messages.labels(query=name, direction=direction).set(
                    row[direction]
                )
    mode = stats.get("mode")
    if mode == "fallback":
        registry.counter(
            "repro_shard_fallbacks_total",
            "sharded runs served by the in-process columnar path",
            labels=("reason",),
        ).labels(reason=stats["reason"].split(":")[0]).inc()
    elif mode == "degraded":
        registry.counter(
            "repro_shard_degradations_total",
            "sharded runs finished on a slower rung after a worker fault",
            labels=("rung",),
        ).labels(rung=stats["degraded_to"]).inc()
    for fault in stats.get("faults", ()):
        registry.counter(
            "repro_shard_faults_total",
            "worker faults of sharded runs, one per faulted run",
            labels=("fault_class",),
        ).labels(fault_class=fault["fault_class"]).inc()
    if mode != "sharded":
        return
    registry.counter(
        "repro_shard_rollbacks_total",
        "mid-window broadcasts that forced a worker suffix rollback",
    ).inc(stats["rollbacks"])
    registry.counter(
        "repro_shard_controls_total",
        "control messages carried by window commits",
    ).inc(stats["controls"])
    verdicts = registry.counter(
        "repro_shard_speculation_total",
        "speculative window verdicts at commit",
        labels=("verdict",),
    )
    verdicts.labels(verdict="hit").inc(stats["speculation"]["hits"])
    verdicts.labels(verdict="miss").inc(stats["speculation"]["misses"])
    phases = registry.counter(
        "repro_shard_phase_seconds_total",
        "cumulative seconds per sharded window phase",
        labels=("phase",),
    )
    window_seconds = registry.histogram(
        "repro_shard_window_seconds",
        "per-window phase durations across the run",
        labels=("phase",),
    )
    for key, seconds in stats["timing"].items():
        phase = key[: -len("_seconds")]
        phases.labels(phase=phase).inc(seconds)
        cell = window_seconds.labels(phase=phase)
        for row in stats["per_window"]:
            cell.observe(row[key])
    for key, name, help_text in _WORKER_FAMILIES:
        family = registry.counter(name, help_text, labels=("worker",))
        for worker, row in enumerate(stats["per_worker"]):
            family.labels(worker=worker).inc(row[key])
