"""Engine benchmark: reference vs columnar runtime on weighted SWOR.

The tentpole claim of the runtime refactor: the protocol does O(1) work
per arrival, so the reference driver's ~6 Python calls of interpreter
dispatch per item are pure overhead — the columnar engine's vectorized
data plane must deliver **>= 3x** items/sec on a 200k-item / 32-site
run while its bounded-staleness control propagation costs **<= 1.5x**
the reference engine's messages on the same seeds.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engines.py -q

(add ``--benchmark-only`` alongside the rest of the suite).

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_ENG_ITEMS``       — stream length (default 200000)
* ``REPRO_BENCH_ENG_SITES``       — number of sites (default 32)
* ``REPRO_BENCH_ENG_MIN_SPEEDUP`` — speedup gate (default 3.0)
* ``REPRO_BENCH_ENG_JSON``        — path to write the result as JSON
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.analysis import format_table
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.runtime import ColumnarEngine
from repro.stream import round_robin, zipf_stream

ITEMS = int(os.environ.get("REPRO_BENCH_ENG_ITEMS", 200_000))
SITES = int(os.environ.get("REPRO_BENCH_ENG_SITES", 32))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_ENG_MIN_SPEEDUP", 3.0))
JSON_PATH = os.environ.get("REPRO_BENCH_ENG_JSON")
SAMPLE = 16
SEEDS = (1, 2, 3)
REPS = 3  # timing repetitions per engine (best-of)


def _make_stream():
    rng = random.Random(0)
    return round_robin(zipf_stream(ITEMS, rng, alpha=1.2), SITES)


def _run_once(stream, seed, engine):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=SITES, sample_size=SAMPLE),
        seed=seed,
        engine=engine,
    )
    t0 = time.perf_counter()
    counters = proto.run(stream)
    return time.perf_counter() - t0, counters.total


def _measure(stream, engine):
    """Best-of-REPS wall time plus per-seed message totals."""
    best = min(_run_once(stream, 1, engine)[0] for _ in range(REPS))
    messages = [_run_once(stream, seed, engine)[1] for seed in SEEDS]
    return best, messages


def _metrics_snapshot(stream):
    """One extra instrumented columnar run, so the JSON artifact carries
    the run's full telemetry (the timed runs above stay pristine)."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    _run_once(stream, 1, ColumnarEngine().instrument(registry))
    return registry.snapshot()


def _bench(report_fn):
    stream = _make_stream()
    ref_time, ref_msgs = _measure(stream, None)
    col_time, col_msgs = _measure(stream, ColumnarEngine())
    speedup = ref_time / col_time
    msg_ratio = max(c / r for c, r in zip(col_msgs, ref_msgs))
    rows = [
        {
            "engine": "reference",
            "seconds": round(ref_time, 4),
            "items_per_sec": round(ITEMS / ref_time),
            "messages(seed1..3)": "/".join(map(str, ref_msgs)),
        },
        {
            "engine": "columnar",
            "seconds": round(col_time, 4),
            "items_per_sec": round(ITEMS / col_time),
            "messages(seed1..3)": "/".join(map(str, col_msgs)),
        },
    ]
    report_fn(
        format_table(
            rows,
            title=f"engine shoot-out: weighted SWOR, {ITEMS} items, "
            f"k={SITES}, s={SAMPLE}",
            caption=f"speedup {speedup:.2f}x (target >= {MIN_SPEEDUP}x), "
            f"worst message ratio {msg_ratio:.2f}x (target <= 1.5x)",
        )
    )
    if JSON_PATH:
        result = {
            "items": ITEMS,
            "sites": SITES,
            "sample_size": SAMPLE,
            "reference_seconds": round(ref_time, 4),
            "columnar_seconds": round(col_time, 4),
            "reference_items_per_sec": round(ITEMS / ref_time),
            "columnar_items_per_sec": round(ITEMS / col_time),
            "speedup": round(speedup, 3),
            "min_speedup": MIN_SPEEDUP,
            "worst_message_ratio": round(msg_ratio, 4),
            "metrics": _metrics_snapshot(stream),
        }
        with open(JSON_PATH, "w") as fh:
            json.dump(result, fh, indent=2)
    return speedup, msg_ratio


def test_columnar_engine_speedup_and_message_overhead(benchmark, report):
    speedup, msg_ratio = benchmark.pedantic(
        lambda: _bench(report), rounds=1, iterations=1
    )
    assert speedup >= MIN_SPEEDUP, f"columnar engine only {speedup:.2f}x faster"
    assert msg_ratio <= 1.5, f"columnar engine message overhead {msg_ratio:.2f}x"


def test_batch_size_sweep(report):
    """Secondary diagnostic: throughput and message cost per batch size."""
    stream = _make_stream()
    rows = []
    for batch_size in (1, 256, 2048, 8192, 16384, 65536):
        engine = ColumnarEngine(batch_size=batch_size)
        elapsed, total = _run_once(stream, 1, engine)
        rows.append(
            {
                "batch_size": batch_size,
                "items_per_sec": round(ITEMS / elapsed),
                "messages": total,
            }
        )
    report(
        format_table(
            rows,
            title="columnar engine: batch-size sweep (200k items, k=32, s=16)",
            caption="batch_size=1 degenerates to the reference engine exactly",
        )
    )
