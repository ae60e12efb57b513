"""Observability overhead gate: the telemetry plane must be ~free.

The tentpole claim of the metrics registry (:mod:`repro.obs`): engine
instrumentation is observational only and sits at run/window
granularity, so

1. **Overhead** — a columnar weighted-SWOR run with a live
   :class:`~repro.obs.MetricsRegistry` attached must cost **<= 2%**
   wall time over the identical run with no registry attached (the
   default).
   The overhead is the median, over ``PAIRS`` pairs, of each pair's
   ``live / base - 1``: the two runs of a pair go back to back, and
   the side that goes first alternates, so host noise and clock drift
   hit both sides alike (at the CI config one run takes about 15 ms,
   short enough for host noise to decide any single comparison).
2. **Bit-parity** — samples AND message counters are identical with
   the registry attached and without one (the registry only
   *observes*), in every pair.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs.py -q

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_OBS_ITEMS``        — stream length (default 200000)
* ``REPRO_BENCH_OBS_SITES``        — number of sites (default 32)
* ``REPRO_BENCH_OBS_MAX_OVERHEAD`` — overhead gate (default 0.02)
* ``REPRO_BENCH_OBS_JSON``         — path to write the result as JSON
  (embeds the live registry's snapshot, so the artifact carries the
  run's full telemetry)
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import time

from repro.analysis import format_table
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.obs import MetricsRegistry
from repro.runtime import ColumnarEngine
from repro.stream import round_robin, zipf_stream

ITEMS = int(os.environ.get("REPRO_BENCH_OBS_ITEMS", 200_000))
SITES = int(os.environ.get("REPRO_BENCH_OBS_SITES", 32))
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_OBS_MAX_OVERHEAD", 0.02))
JSON_PATH = os.environ.get("REPRO_BENCH_OBS_JSON")
SAMPLE = 16
SEED = 1
PAIRS = 31  # interleaved (base, live) pairs; the overhead is their median


def _make_stream():
    rng = random.Random(0)
    return round_robin(zipf_stream(ITEMS, rng, alpha=1.2), SITES)


def _run_once(stream, registry):
    engine = ColumnarEngine()
    if registry is not None:
        engine.instrument(registry)
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=SITES, sample_size=SAMPLE),
        seed=SEED,
        engine=engine,
    )
    gc.collect()  # no collection of the previous run's garbage inside the timing
    t0 = time.perf_counter()
    proto.run(stream)
    return time.perf_counter() - t0, proto


def _bench(report_fn):
    stream = _make_stream()
    registry = MetricsRegistry()
    base_times, live_times, overheads = [], [], []
    samples_identical = counters_identical = True
    for pair in range(PAIRS):
        # A pair runs back to back; the side that goes first alternates.
        runs = {}
        for side in (None, registry) if pair % 2 == 0 else (registry, None):
            runs[side] = _run_once(stream, side)
        (base, base_proto), (live, live_proto) = runs[None], runs[registry]
        base_times.append(base)
        live_times.append(live)
        overheads.append(live / base - 1.0)
        samples_identical &= (
            base_proto.sample_with_keys() == live_proto.sample_with_keys()
        )
        counters_identical &= (
            base_proto.counters.snapshot() == live_proto.counters.snapshot()
        )
    overhead = statistics.median(overheads)
    base_median = statistics.median(base_times)
    live_median = statistics.median(live_times)
    rows = [
        {
            "registry": "none attached (default)",
            "median_seconds": round(base_median, 4),
            "items_per_sec": round(ITEMS / base_median),
        },
        {
            "registry": "live MetricsRegistry",
            "median_seconds": round(live_median, 4),
            "items_per_sec": round(ITEMS / live_median),
        },
    ]
    report_fn(
        format_table(
            rows,
            title=f"telemetry overhead: columnar weighted SWOR, {ITEMS} "
            f"items, k={SITES}, s={SAMPLE}",
            caption=f"overhead {overhead * 100:+.2f}% (median of {PAIRS} "
            f"interleaved pairs; gate <= {MAX_OVERHEAD * 100:.0f}%), "
            "samples identical: "
            f"{samples_identical}, counters identical: "
            f"{counters_identical}, {len(registry.metric_names())} "
            "metric families exported",
        )
    )
    if JSON_PATH:
        result = {
            "items": ITEMS,
            "sites": SITES,
            "sample_size": SAMPLE,
            "pairs": PAIRS,
            "base_seconds": round(base_median, 4),
            "instrumented_seconds": round(live_median, 4),
            "overhead": round(overhead, 4),
            "max_overhead": MAX_OVERHEAD,
            "samples_identical": samples_identical,
            "counters_identical": counters_identical,
            "metrics": registry.snapshot(),
        }
        with open(JSON_PATH, "w") as fh:
            json.dump(result, fh, indent=2)
    return overhead, samples_identical, counters_identical


def test_registry_overhead_and_parity(benchmark, report):
    overhead, samples_identical, counters_identical = benchmark.pedantic(
        lambda: _bench(report), rounds=1, iterations=1
    )
    assert samples_identical, "instrumentation changed the sample"
    assert counters_identical, "instrumentation changed the counters"
    assert overhead <= MAX_OVERHEAD, (
        f"registry overhead {overhead * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% gate"
    )
