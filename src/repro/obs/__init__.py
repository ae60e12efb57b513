"""Observability: the unified telemetry plane.

A zero-dependency metrics core every engine reports into:

* :class:`MetricsRegistry` — monotonic counters, gauges and histograms
  with fixed bucket schemas and label support
  (:mod:`repro.obs.registry`);
* Prometheus text and JSON exposition
  (:mod:`repro.obs.exposition`), surfaced by ``repro ...
  --metrics-out FILE`` and ``repro stats``;
* :func:`export_run` — the one map from a run record (an engine's
  ``last_run_stats``, which every engine's ``run()`` and every
  multi-query driver pass builds once) plus the network's
  :class:`~repro.net.counters.MessageCounters` onto registry metrics
  (:mod:`repro.obs.bridge`); engines call it as they record each run,
  so the record and the registry never drift.

An engine carries no registry until one is attached with
:meth:`~repro.runtime.base.Engine.instrument`::

    from repro.obs import MetricsRegistry
    from repro.runtime import get_engine

    registry = MetricsRegistry()
    engine = get_engine("sharded").instrument(registry)
    protocol = DistributedWeightedSWOR(config, seed=7, engine=engine)
    protocol.run(stream)
    print(registry.exposition())        # Prometheus text
    registry.snapshot()                 # JSON-able dict

Instrumentation is observational only: samples and message counters
are bit-identical with a registry attached and without one, on every
engine and on the multi-query driver (pinned by ``tests/test_obs.py``),
and the measured overhead is gated at ≤2% by
``benchmarks/bench_obs.py``.
"""

from .bridge import export_run
from .exposition import render_json, render_prometheus, write_metrics
from .registry import DURATION_BUCKETS, MetricsRegistry

__all__ = [
    "MetricsRegistry",
    "DURATION_BUCKETS",
    "render_prometheus",
    "render_json",
    "write_metrics",
    "export_run",
]
