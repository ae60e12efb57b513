"""Observability: the unified telemetry plane.

A zero-dependency metrics core every layer of the package reports into:

* :class:`MetricsRegistry` — monotonic counters, gauges, histograms
  with fixed bucket schemas, label support, and a ``with
  registry.span("fold", ...)`` timing API
  (:mod:`repro.obs.registry`);
* :data:`NULL_REGISTRY` — the always-on default: a no-op registry so
  un-instrumented runs pay (nearly) nothing;
* Prometheus text and JSON exposition
  (:mod:`repro.obs.exposition`), surfaced by ``repro ...
  --metrics-out FILE`` and ``repro stats``;
* :func:`export_run` — the one map from a run record (an engine's
  ``last_run_stats``, which every engine's ``run()`` builds once) plus
  the network's :class:`~repro.net.counters.MessageCounters` onto
  registry metrics (:mod:`repro.obs.bridge`); engines call it as they
  record each run, so the record and the registry never drift.

Attach a registry to any engine with
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
are bit-identical with a live registry and with the null one, on every
engine (pinned by ``tests/test_obs.py``), and the measured overhead is
gated at ≤2% by ``benchmarks/bench_obs.py``.
"""

from .bridge import export_run
from .exposition import render_json, render_prometheus, write_metrics
from .registry import (
    DURATION_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DURATION_BUCKETS",
    "render_prometheus",
    "render_json",
    "write_metrics",
    "export_run",
]
