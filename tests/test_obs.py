"""The unified telemetry plane: registry, exposition, instrumentation.

What is covered:

1. **Registry semantics** — counters are monotonic, gauges last-write-
   win, histograms keep fixed bucket schemas, labels validate, spans
   time, and the null registry is a complete no-op surface.
2. **Golden exposition** — the Prometheus text rendering and the JSON
   snapshot of a hand-built registry are pinned byte-for-byte /
   structure-for-structure.
3. **Metric-name stability** — the full family-name surface every
   layer exports is pinned as a golden list, so a rename is a
   deliberate, reviewed act (dashboards depend on these names).
4. **Bit-parity** — samples AND message counters are identical with a
   live registry and with the null one, on every engine (reference,
   columnar, sharded) and on the multi-query driver.  Instrumentation
   is observational only.
5. **Instrumentation facts** — engines export run/item/window
   counters and message gauges that agree with the ground truth;
   worker shards ship metric columns that merge into per-worker
   counters; ``format_stats`` is safe before any run.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.common.errors import ConfigurationError
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.obs import (
    DURATION_BUCKETS,
    NULL_REGISTRY,
    WORKER_METRIC_NAMES,
    MetricsRegistry,
    NullRegistry,
    merge_worker_deltas,
    observe_degradation,
    observe_fault,
    observe_heartbeat_age,
    observe_message_counters,
    observe_sharded_stats,
    render_json,
    render_prometheus,
    write_metrics,
)
from repro.query import MultiQueryDriver, QueryCatalog, SubsetSumQuery
from repro.runtime import ShardedEngine, get_engine
from repro.stream import round_robin, zipf_stream

SITES = 8
SAMPLE = 8
SEED = 3


def _stream(n=20_000, seed=0, sites=SITES):
    return round_robin(zipf_stream(n, random.Random(seed), alpha=1.2), sites)


def _run(engine, n=20_000, sites=SITES, seed=SEED):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=sites, sample_size=SAMPLE),
        seed=seed,
        engine=engine,
    )
    proto.run(_stream(n, sites=sites))
    return proto


def _fingerprint(proto):
    return (
        [(i.ident, i.weight, key) for i, key in proto.sample_with_keys()],
        proto.counters.snapshot(),
    )


def _value(registry, name, **labels):
    """The value of one counter/gauge cell (0.0 if never touched)."""
    family = registry._families[name]
    key = tuple(str(labels[n]) for n in family.label_names)
    cell = family._children.get(key)
    return 0.0 if cell is None else cell.value


# ---------------------------------------------------------------------------
# 1. Registry semantics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_x_total", "help")
        c.inc()
        c.inc(2.5)
        assert _value(registry, "repro_x_total") == 3.5
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        g = registry.gauge("repro_depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert _value(registry, "repro_depth") == 6.0

    def test_labeled_cells_are_independent(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_x_total", labels=("engine",))
        c.labels(engine="a").inc()
        c.labels(engine="a").inc()
        c.labels(engine="b").inc(5)
        assert _value(registry, "repro_x_total", engine="a") == 2.0
        assert _value(registry, "repro_x_total", engine="b") == 5.0

    def test_label_names_must_match_declaration(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_x_total", labels=("engine",))
        with pytest.raises(ConfigurationError):
            c.labels(wrong="a")
        with pytest.raises(ConfigurationError):
            c.labels()

    def test_redeclaration_must_agree(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", labels=("engine",))
        # Same declaration: fetches the same family.
        again = registry.counter("repro_x_total", labels=("engine",))
        assert again is registry._families["repro_x_total"]
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_x_total")
        with pytest.raises(ConfigurationError):
            registry.counter("repro_x_total", labels=("other",))

    def test_invalid_names_and_reserved_labels_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("9starts_with_digit")
        with pytest.raises(ConfigurationError):
            registry.counter("has-dash")
        with pytest.raises(ConfigurationError):
            registry.counter("repro_x_total", labels=("le",))

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("repro_h_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 100.0):
            h.observe(value)
        cell = registry._families["repro_h_seconds"]._solo()
        assert cell.bucket_counts == [1, 2, 0]  # 100.0 only in +Inf
        assert cell.count == 4
        assert cell.sum == pytest.approx(101.05)

    def test_histogram_default_buckets_are_durations(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h_seconds")
        assert registry._families["repro_h_seconds"].buckets == DURATION_BUCKETS

    def test_histogram_buckets_must_strictly_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("repro_h_seconds", buckets=(1.0, 1.0, 2.0))

    def test_span_observes_duration_histogram(self):
        registry = MetricsRegistry()
        with registry.span("fold", engine="columnar") as span:
            pass
        assert span.seconds >= 0.0
        family = registry._families["repro_fold_seconds"]
        assert family.type == "histogram"
        cell = family.labels(engine="columnar")
        assert cell.count == 1
        assert cell.sum == span.seconds

    def test_metric_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("repro_b_total")
        registry.counter("repro_a_total")
        assert registry.metric_names() == ["repro_a_total", "repro_b_total"]


class TestNullRegistry:
    def test_disabled_and_inert(self):
        null = NULL_REGISTRY
        assert null.enabled is False
        null.counter("x_total").labels(engine="a").inc()
        null.gauge("g").set(5)
        null.histogram("h").observe(1.0)
        with null.span("fold", engine="a"):
            pass
        null.merge_snapshot({"metrics": {"x": {}}})
        assert null.families() == []
        assert null.metric_names() == []
        assert null.snapshot() == {"metrics": {}}
        assert null.exposition() == ""

    def test_singleton(self):
        assert isinstance(NULL_REGISTRY, NullRegistry)
        from repro.runtime.base import Engine

        assert Engine.registry is NULL_REGISTRY


class TestMergeSnapshot:
    def test_counters_and_histograms_add_gauges_overwrite(self):
        a = MetricsRegistry()
        a.counter("repro_x_total", labels=("engine",)).labels(engine="e").inc(2)
        a.gauge("repro_depth").set(1)
        a.histogram("repro_h_seconds", buckets=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.counter("repro_x_total", labels=("engine",)).labels(engine="e").inc(3)
        b.gauge("repro_depth").set(7)
        b.histogram("repro_h_seconds", buckets=(1.0, 2.0)).observe(1.5)
        a.merge_snapshot(b.snapshot())
        assert _value(a, "repro_x_total", engine="e") == 5.0
        assert _value(a, "repro_depth") == 7.0
        cell = a._families["repro_h_seconds"]._solo()
        assert cell.bucket_counts == [1, 1]
        assert cell.count == 2 and cell.sum == 2.0

    def test_merge_declares_missing_families(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        b.counter("repro_new_total", "from b").inc(4)
        a.merge_snapshot(b.snapshot())
        assert _value(a, "repro_new_total") == 4.0
        assert a._families["repro_new_total"].help == "from b"

    def test_histogram_schema_mismatch_rejected(self):
        a = MetricsRegistry()
        a.histogram("repro_h_seconds", buckets=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("repro_h_seconds", buckets=(1.0, 2.0, 4.0)).observe(0.5)
        with pytest.raises(ConfigurationError):
            a.merge_snapshot(b.snapshot())

    def test_merge_is_how_bench_artifacts_fold(self):
        """A snapshot survives a JSON round trip and still merges."""
        b = MetricsRegistry()
        b.counter("repro_x_total").inc(2)
        b.histogram("repro_h_seconds", buckets=(1.0,)).observe(0.5)
        a = MetricsRegistry()
        a.merge_snapshot(json.loads(json.dumps(b.snapshot())))
        assert a.snapshot() == b.snapshot()


# ---------------------------------------------------------------------------
# 2. Golden exposition
# ---------------------------------------------------------------------------


def _golden_registry():
    registry = MetricsRegistry()
    h = registry.histogram(
        "repro_fold_seconds", "fold durations", buckets=(0.25, 1.0)
    )
    for value in (0.25, 0.5, 5.0):
        h.observe(value)
    registry.counter(
        "repro_folds_total", "coordinator folds", labels=("engine",)
    ).labels(engine="columnar").inc(3)
    registry.gauge("repro_queue_depth", "queued windows").set(2)
    return registry


GOLDEN_PROMETHEUS = """\
# HELP repro_fold_seconds fold durations
# TYPE repro_fold_seconds histogram
repro_fold_seconds_bucket{le="0.25"} 1
repro_fold_seconds_bucket{le="1"} 2
repro_fold_seconds_bucket{le="+Inf"} 3
repro_fold_seconds_sum 5.75
repro_fold_seconds_count 3
# HELP repro_folds_total coordinator folds
# TYPE repro_folds_total counter
repro_folds_total{engine="columnar"} 3
# HELP repro_queue_depth queued windows
# TYPE repro_queue_depth gauge
repro_queue_depth 2
"""

GOLDEN_JSON = {
    "metrics": {
        "repro_fold_seconds": {
            "type": "histogram",
            "help": "fold durations",
            "label_names": [],
            "bucket_bounds": [0.25, 1.0],
            "samples": [
                {
                    "labels": {},
                    "buckets": {"0.25": 1, "1.0": 1},
                    "sum": 5.75,
                    "count": 3,
                }
            ],
        },
        "repro_folds_total": {
            "type": "counter",
            "help": "coordinator folds",
            "label_names": ["engine"],
            "samples": [{"labels": {"engine": "columnar"}, "value": 3.0}],
        },
        "repro_queue_depth": {
            "type": "gauge",
            "help": "queued windows",
            "label_names": [],
            "samples": [{"labels": {}, "value": 2.0}],
        },
    }
}


class TestExposition:
    def test_prometheus_golden(self):
        assert render_prometheus(_golden_registry()) == GOLDEN_PROMETHEUS

    def test_json_golden(self):
        assert json.loads(render_json(_golden_registry())) == GOLDEN_JSON

    def test_exposition_method_matches_renderer(self):
        registry = _golden_registry()
        assert registry.exposition() == render_prometheus(registry)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert json.loads(render_json(MetricsRegistry())) == {"metrics": {}}

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", labels=("reason",)).labels(
            reason='quo"te\\slash\nline'
        ).inc()
        text = render_prometheus(registry)
        assert 'reason="quo\\"te\\\\slash\\nline"' in text

    def test_write_metrics_picks_format_from_extension(self, tmp_path):
        registry = _golden_registry()
        prom = tmp_path / "m.prom"
        txt = tmp_path / "m.txt"
        js = tmp_path / "m.json"
        assert write_metrics(registry, str(prom)) == "prometheus"
        assert write_metrics(registry, str(txt)) == "prometheus"
        assert write_metrics(registry, str(js)) == "json"
        assert prom.read_text() == GOLDEN_PROMETHEUS
        assert txt.read_text() == GOLDEN_PROMETHEUS
        assert json.loads(js.read_text()) == GOLDEN_JSON


# ---------------------------------------------------------------------------
# 3. Metric-name stability (golden list)
# ---------------------------------------------------------------------------

#: The complete family-name surface the package exports.  Dashboards
#: and the CI artifact diff depend on these names: renaming one is a
#: breaking change and must update this list (and the README table)
#: in the same commit.
GOLDEN_METRIC_NAMES = [
    "repro_driver_items_total",
    "repro_driver_run_seconds",
    "repro_driver_runs_total",
    "repro_engine_items_total",
    "repro_engine_run_seconds",
    "repro_engine_runs_total",
    "repro_engine_windows_total",
    "repro_message_words",
    "repro_message_words_max",
    "repro_messages",
    "repro_messages_by_kind",
    "repro_query_fold_seconds_total",
    "repro_query_messages",
    "repro_shard_controls_total",
    "repro_shard_degradations_total",
    "repro_shard_fallbacks_total",
    "repro_shard_faults_total",
    "repro_shard_phase_seconds_total",
    "repro_shard_rollbacks_total",
    "repro_shard_speculation_total",
    "repro_shard_window_seconds",
    "repro_shard_windows_total",
    "repro_shard_worker_compute_seconds_total",
    "repro_shard_worker_heartbeat_age_seconds",
    "repro_shard_worker_pack_entries_total",
    "repro_shard_worker_packs_total",
    "repro_shard_worker_ring_bytes_total",
    "repro_shard_worker_rolls_served_total",
    "repro_shard_worker_snapshots_total",
    "repro_shard_worker_spec_recomputes_total",
    "repro_shard_worker_windows_total",
]


class TestMetricNameStability:
    def test_every_exported_family_name_is_golden(self):
        """Exercise every export path into ONE registry and pin the
        resulting family names exactly.

        In-process engine runs, a driver run, and a (deterministic,
        spawn-free) sharded fallback run hit the real code paths; the
        sharded bridge and the worker-column merge are driven with
        synthetic inputs so the racy metrics (speculation timing varies
        run to run) still surface every name deterministically.
        """
        registry = MetricsRegistry()
        for spec in ("reference", "columnar"):
            _run(get_engine(spec).instrument(registry), n=6_000)
        driver = MultiQueryDriver(
            QueryCatalog([SubsetSumQuery("q", sample_size=8)]),
            num_sites=SITES,
            seed=5,
            registry=registry,
        )
        driver.run(_stream(4_000))
        # workers=1 → deterministic in-process fallback, no spawn.
        _run(ShardedEngine(workers=1).instrument(registry), n=6_000)
        observe_sharded_stats(
            registry,
            {
                "mode": "sharded",
                "windows": 4,
                "rollbacks": 1,
                "controls": 2,
                "speculation": {"hits": 3, "misses": 1},
                "timing": {"compute_seconds": 0.5, "fold_seconds": 0.25},
                "per_window": [{"compute_seconds": 0.1, "packs": 2}],
            },
        )
        merge_worker_deltas(registry, 0, (1.0,) * len(WORKER_METRIC_NAMES))
        observe_fault(registry, "crash")
        observe_degradation(registry, "columnar")
        observe_heartbeat_age(registry, 0, 0.0)
        assert registry.metric_names() == GOLDEN_METRIC_NAMES

    def test_worker_metric_columns_schema_is_fixed(self):
        """The wire schema of the per-window metric columns (position
        IS the name — reordering breaks old/new worker mixes)."""
        assert WORKER_METRIC_NAMES == (
            "windows",
            "packs",
            "pack_entries",
            "ring_bytes",
            "compute_seconds",
            "snapshots",
            "rolls_served",
            "spec_recomputes",
        )


# ---------------------------------------------------------------------------
# 4. Bit-parity: instrumentation is observational only
# ---------------------------------------------------------------------------


class TestInstrumentationParity:
    @pytest.mark.parametrize("spec", ["reference", "columnar"])
    def test_in_process_engines(self, spec):
        plain = _run(get_engine(spec))
        registry = MetricsRegistry()
        live = _run(get_engine(spec).instrument(registry))
        assert _fingerprint(plain) == _fingerprint(live)
        assert registry.metric_names()  # telemetry actually flowed

    def test_sharded_engine(self):
        pytest.importorskip("numpy")
        engine = ShardedEngine(workers=2, batch_size=4096)
        try:
            plain = _run(engine)
            assert engine.last_run_stats["mode"] == "sharded"
            registry = MetricsRegistry()
            engine.instrument(registry)
            live = _run(engine)
            assert engine.last_run_stats["mode"] == "sharded"
        finally:
            engine.close()
        assert _fingerprint(plain) == _fingerprint(live)
        # Both also match the in-process columnar engine at the same
        # batch size (the existing parity guarantee, now under metrics).
        columnar = _run(get_engine("columnar", batch_size=4096))
        assert _fingerprint(live) == _fingerprint(columnar)

    def test_driver(self):
        queries = [
            SubsetSumQuery("a", sample_size=8),
            SubsetSumQuery("b", sample_size=8),
        ]
        plain = MultiQueryDriver(
            QueryCatalog(list(queries)), num_sites=SITES, seed=5
        )
        answers_plain = plain.run(_stream(6_000))
        registry = MetricsRegistry()
        live = MultiQueryDriver(
            QueryCatalog(list(queries)),
            num_sites=SITES,
            seed=5,
            registry=registry,
        )
        answers_live = live.run(_stream(6_000))
        assert repr(answers_plain.answers) == repr(answers_live.answers)
        assert {
            name: c.snapshot() for name, c in plain.counters().items()
        } == {name: c.snapshot() for name, c in live.counters().items()}
        assert "repro_driver_runs_total" in registry.metric_names()


# ---------------------------------------------------------------------------
# 5. Instrumentation facts
# ---------------------------------------------------------------------------


class TestEngineInstrumentation:
    def test_format_stats_before_any_run(self):
        for spec in ("reference", "columnar", "sharded"):
            engine = get_engine(spec)
            assert engine.format_stats() == (
                f"{engine.name} engine: no run recorded yet"
            )

    def test_format_stats_after_run(self):
        engine = get_engine("columnar")
        _run(engine, n=4_000)
        text = engine.format_stats()
        assert text.startswith("columnar engine: items 4000")
        assert "windows" in text and "wall" in text

    def test_instrument_none_detaches(self):
        engine = get_engine("columnar")
        registry = MetricsRegistry()
        assert engine.instrument(registry) is engine
        assert engine.registry is registry
        engine.instrument(None)
        assert engine.registry is NULL_REGISTRY

    @pytest.mark.parametrize("spec", ["reference", "columnar"])
    def test_run_export_matches_ground_truth(self, spec):
        registry = MetricsRegistry()
        engine = get_engine(spec).instrument(registry)
        proto = _run(engine, n=6_000)
        name = engine.name
        assert _value(registry, "repro_engine_runs_total", engine=name) == 1.0
        assert (
            _value(registry, "repro_engine_items_total", engine=name) == 6_000
        )
        hist = registry._families["repro_engine_run_seconds"].labels(
            engine=name
        )
        assert hist.count == 1
        assert hist.sum == pytest.approx(
            engine.last_run_stats["seconds"], rel=1e-9
        )
        counters = proto.counters
        assert (
            _value(registry, "repro_messages", engine=name, direction="upstream")
            == counters.upstream
        )
        assert (
            _value(
                registry, "repro_messages", engine=name, direction="downstream"
            )
            == counters.downstream
        )
        assert (
            _value(registry, "repro_message_words", engine=name)
            == counters.words
        )
        for kind, count in counters.by_kind.items():
            assert (
                _value(registry, "repro_messages_by_kind", engine=name, kind=kind)
                == count
            )
        if "windows" in engine.last_run_stats:
            assert _value(
                registry, "repro_engine_windows_total", engine=name
            ) == engine.last_run_stats["windows"]

    def test_sharded_worker_columns_merge_at_commit(self):
        pytest.importorskip("numpy")
        registry = MetricsRegistry()
        engine = ShardedEngine(workers=2, batch_size=4096).instrument(registry)
        try:
            _run(engine)
            stats = engine.last_run_stats
            assert stats["mode"] == "sharded"
        finally:
            engine.close()
        windows = stats["windows"]
        # Every worker ships every window exactly once (a discarded
        # speculative pass books as a recompute, not a window).
        per_worker = {
            worker: _value(
                registry, "repro_shard_worker_windows_total", worker=worker
            )
            for worker in (0, 1)
        }
        assert per_worker == {0: float(windows), 1: float(windows)}
        assert _value(registry, "repro_shard_windows_total") == windows
        # The stats dict the registry was computed from is unchanged in
        # shape (the public surface other tests and the CLI rely on).
        for key in ("mode", "windows", "rollbacks", "controls", "timing"):
            assert key in stats

    def test_sharded_fallback_reason_is_labeled(self):
        registry = MetricsRegistry()
        engine = ShardedEngine(workers=1).instrument(registry)
        _run(engine, n=4_000)
        assert engine.last_run_stats["mode"] == "fallback"
        assert (
            _value(registry, "repro_shard_fallbacks_total", reason="single worker")
            == 1.0
        )
        # The fallback still exports the engine-level run metrics under
        # the sharded engine's own name.
        assert (
            _value(registry, "repro_engine_runs_total", engine="sharded") == 1.0
        )

    def test_driver_fold_labels_include_fused_groups(self):
        registry = MetricsRegistry()
        driver = MultiQueryDriver(
            QueryCatalog(
                [
                    SubsetSumQuery("a", sample_size=8),
                    SubsetSumQuery("b", sample_size=8),
                ]
            ),
            num_sites=SITES,
            seed=5,
            registry=registry,
        )
        driver.run(_stream(6_000))
        fold = registry._families["repro_query_fold_seconds_total"]
        labels = {values[0] for values, _cell in fold.samples()}
        # Same-sample-size SWOR queries fuse into one shared consumer.
        assert labels == {"a+b"}
        assert _value(registry, "repro_driver_runs_total") == 1.0
        assert _value(registry, "repro_driver_items_total") == 6_000
        for name, counters in driver.counters().items():
            assert _value(
                registry, "repro_query_messages", query=name, direction="upstream"
            ) == counters.upstream
