"""The unified telemetry plane: registry, exposition, instrumentation.

What is covered:

1. **Registry semantics** — counters are monotonic, gauges last-write-
   win, histograms keep fixed bucket schemas, labels validate, and an
   engine carries no registry until one is attached.
2. **Golden exposition** — the Prometheus text rendering and the JSON
   snapshot of a hand-built registry are pinned byte-for-byte /
   structure-for-structure.
3. **Metric-name stability** — the full family-name surface every
   layer exports is pinned as a golden list, so a rename is a
   deliberate, reviewed act (dashboards depend on these names).
4. **Bit-parity** — samples AND message counters are identical with a
   registry attached and without one, on every engine (reference,
   columnar, sharded) and on the multi-query driver.  Instrumentation
   is observational only.
5. **Instrumentation facts** — engines export run/item/window
   counters and message gauges that agree with the ground truth; the
   sharded record's per-worker figures, counted by the parent, agree
   with the run and with their per-worker counters; a driver pass
   records once on its engine; ``format_stats`` is safe before any
   run.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.common.errors import ConfigurationError
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.net.counters import MessageCounters
from repro.obs import (
    DURATION_BUCKETS,
    MetricsRegistry,
    export_run,
    render_json,
    render_prometheus,
    write_metrics,
)
from repro.query import (
    CountQuery,
    MultiQueryDriver,
    QueryCatalog,
    SubsetSumQuery,
    TotalWeightQuery,
)
from repro.runtime import Engine, ShardedEngine, get_engine
from repro.runtime.batched import batch_windows
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

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        g = registry.gauge("repro_depth")
        g.set(5)
        g.set(2)
        assert _value(registry, "repro_depth") == 2.0

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

    def test_metric_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("repro_b_total")
        registry.counter("repro_a_total")
        assert registry.metric_names() == ["repro_a_total", "repro_b_total"]


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
    "repro_shard_worker_compute_seconds_total",
    "repro_shard_worker_pack_entries_total",
    "repro_shard_worker_packs_total",
    "repro_shard_worker_rolls_served_total",
]


class TestMetricNameStability:
    def test_every_exported_family_name_is_golden(self):
        """Exercise every export path into ONE registry and pin the
        resulting family names exactly.

        In-process engine runs, a driver pass on an instrumented
        engine, and a (deterministic, spawn-free) sharded fallback run
        hit the real code paths; a sharded and a degraded record are
        exported synthetically, so the metric names do not hang on a
        multiprocess run.
        """
        registry = MetricsRegistry()
        for spec in ("reference", "columnar"):
            _run(get_engine(spec).instrument(registry), n=6_000)
        driver = MultiQueryDriver(
            QueryCatalog([SubsetSumQuery("q", sample_size=8)]),
            num_sites=SITES,
            seed=5,
            engine=get_engine("columnar").instrument(registry),
        )
        driver.run(_stream(4_000))
        # workers=1 → deterministic in-process fallback, no spawn.
        _run(ShardedEngine(workers=1).instrument(registry), n=6_000)
        run = {"engine": "sharded", "items": 100, "seconds": 0.5, "windows": 4}
        export_run(
            registry,
            {
                **run,
                "mode": "sharded",
                "rollbacks": 1,
                "controls": 2,
                "speculation": {"hits": 3, "misses": 1},
                "timing": {"worker_compute_seconds": 0.5},
                "per_window": [{"worker_compute_seconds": 0.1, "controls": 2}],
                "per_worker": [
                    {
                        "compute_seconds": 0.5,
                        "packs": 2,
                        "pack_entries": 9,
                        "rolls_served": 1,
                    }
                ],
            },
            MessageCounters(),
        )
        export_run(
            registry,
            {
                **run,
                "mode": "degraded",
                "reason": "worker crash fault: gone",
                "degraded_to": "columnar",
                "faults": [{"fault_class": "crash"}],
            },
            MessageCounters(),
        )
        assert registry.metric_names() == GOLDEN_METRIC_NAMES


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

    def test_sharded_wire_has_one_shape(self, monkeypatch):
        """Every ``res`` and ``sta`` a worker sends has one shape, with
        a live registry attached or not."""
        pytest.importorskip("numpy")
        shapes = []
        recv = ShardedEngine._recv

        def spy(self, handle, window=None):
            message = recv(self, handle, window)
            if message[0] in ("res", "sta"):
                shapes.append((message[0], len(message)))
            return message

        monkeypatch.setattr(ShardedEngine, "_recv", spy)
        engine = ShardedEngine(workers=2, batch_size=4096)
        try:
            plain = _run(engine)
            plain_shapes = set(shapes)
            shapes.clear()
            engine.instrument(MetricsRegistry())
            live = _run(engine)
            assert engine.last_run_stats["mode"] == "sharded"
        finally:
            engine.close()
        assert plain_shapes == set(shapes) == {("res", 3), ("sta", 4)}
        assert _fingerprint(plain) == _fingerprint(live)

    def test_driver_pass_record(self):
        """A driver pass records once on its engine: ``engine``,
        ``items``, ``seconds``, ``windows`` (the schedule's window
        count) and one ``queries`` row per network-backed query.
        Answers and counters are identical with and without a registry
        attached."""
        queries = [
            SubsetSumQuery("a", sample_size=8),
            CountQuery("b", sample_size=8),
            TotalWeightQuery("c", eps=0.25),
        ]
        stream = _stream(6_000)
        plain = MultiQueryDriver(
            QueryCatalog(list(queries)), num_sites=SITES, seed=5
        )
        answers_plain = plain.run(stream)
        registry = MetricsRegistry()
        engine = get_engine("columnar").instrument(registry)
        live = MultiQueryDriver(
            QueryCatalog(list(queries)), num_sites=SITES, seed=5, engine=engine
        )
        answers_live = live.run(stream)
        assert repr(answers_plain.answers) == repr(answers_live.answers)
        counters = {name: c.snapshot() for name, c in live.counters().items()}
        assert counters == {
            name: c.snapshot() for name, c in plain.counters().items()
        }
        record = engine.last_run_stats
        assert sorted(record) == ["engine", "items", "queries", "seconds", "windows"]
        assert record["engine"] == "columnar"
        assert record["items"] == 6_000
        assert record["windows"] == len(
            list(batch_windows(6_000, engine.batch_size))
        )
        assert list(record["queries"]) == ["a", "b", "c"]
        for name, row in record["queries"].items():
            assert sorted(row) == ["downstream", "fold_seconds", "upstream"]
            assert row["upstream"] == counters[name]["upstream"]
            assert row["downstream"] == counters[name]["downstream"]
        assert 0 < sum(r["fold_seconds"] for r in record["queries"].values())
        assert sum(r["fold_seconds"] for r in record["queries"].values()) <= (
            record["seconds"]
        )
        assert plain.engine.last_run_stats.keys() == record.keys()
        assert _value(registry, "repro_engine_runs_total", engine="columnar") == 1.0


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
        assert Engine.registry is None and engine.registry is None
        registry = MetricsRegistry()
        assert engine.instrument(registry) is engine
        assert engine.registry is registry
        engine.instrument(None)
        assert engine.registry is None

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

    def test_sharded_per_worker_figures_are_counted_by_the_parent(self):
        """The record's per-worker rows — the compute seconds each
        ``res`` reports, the descriptors the parent decodes, the rolls
        it sends, the verdicts of each ``sta`` — agree with the run,
        and each exported per-worker counter reads its row."""
        pytest.importorskip("numpy")
        registry = MetricsRegistry()
        engine = ShardedEngine(workers=2, batch_size=1024).instrument(registry)
        try:
            proto = _run(engine)
            stats = engine.last_run_stats
        finally:
            engine.close()
        assert stats["mode"] == "sharded"
        rows = stats["per_worker"]
        assert [sorted(row) for row in rows] == [
            [
                "compute_seconds",
                "hits",
                "misses",
                "pack_entries",
                "packs",
                "rolls_served",
            ]
        ] * 2
        # Every decoded message is folded, and counted, upstream.
        assert sum(row["pack_entries"] for row in rows) == proto.counters.upstream
        assert all(0 < row["packs"] <= row["pack_entries"] for row in rows)
        # The last shard holds the highest sites: every roll reaches it.
        assert rows[-1]["rolls_served"] == stats["rollbacks"] > 0
        # Each worker resolves its speculation of every window but the
        # last as one hit or one miss.
        for row in rows:
            assert row["hits"] + row["misses"] == stats["windows"] - 1
        assert stats["speculation"] == {
            "hits": sum(row["hits"] for row in rows),
            "misses": sum(row["misses"] for row in rows),
        }
        # A window's worker compute is its slowest worker's pass.
        assert stats["timing"]["worker_compute_seconds"] <= sum(
            row["compute_seconds"] for row in rows
        )
        for figure in ("compute_seconds", "packs", "pack_entries", "rolls_served"):
            family = f"repro_shard_worker_{figure}_total"
            for worker, row in enumerate(rows):
                assert _value(registry, family, worker=worker) == pytest.approx(
                    row[figure]
                )
        assert (
            _value(registry, "repro_engine_windows_total", engine="sharded")
            == stats["windows"]
        )

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

    def test_driver_fold_labels_one_per_query(self):
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
            engine=get_engine("columnar").instrument(registry),
        )
        driver.run(_stream(6_000))
        record = driver.engine.last_run_stats
        fold = registry._families["repro_query_fold_seconds_total"]
        # Each query network runs its own window step: one label each.
        assert {values[0]: cell.value for values, cell in fold.samples()} == {
            name: row["fold_seconds"] for name, row in record["queries"].items()
        }
        assert set(record["queries"]) == {"a", "b"}
        # The pass counts as a run of its engine; it has no network of
        # its own, so it sets no per-engine message gauge.
        assert _value(registry, "repro_engine_runs_total", engine="columnar") == 1.0
        assert _value(registry, "repro_engine_items_total", engine="columnar") == 6_000
        assert (
            _value(registry, "repro_engine_windows_total", engine="columnar")
            == record["windows"]
        )
        assert "repro_messages" not in registry.metric_names()
        for name, counters in driver.counters().items():
            for direction in ("upstream", "downstream"):
                assert _value(
                    registry, "repro_query_messages", query=name, direction=direction
                ) == getattr(counters, direction)
