"""Fault degradation on a warm sharded pool.

Every sharded run is supervised (see ``repro.runtime.sharded``): fault
detection rides on the transport the engine already uses — deadline
waits instead of blocking receives, one run-start checkpoint, the wire
validation the pack decoder already performs.  This benchmark times a
fault-free sharded weighted-SWOR run (best-of-``REPS`` on a warm pool,
which must run ``mode == "sharded"``), then fires a planned ``kill``
fault on the same warm engine: that run must finish on the in-process
columnar engine (``mode == "degraded"``) with the bit-identical sample
and counters (recorded as ``recovery_identical``; ``recovery_seconds``
is the faulted run's wall time).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -q

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_FAULTS_ITEMS``   — stream length (default 200000)
* ``REPRO_BENCH_FAULTS_SITES``   — number of sites (default 16)
* ``REPRO_BENCH_FAULTS_WORKERS`` — worker processes (default 2)
* ``REPRO_BENCH_FAULTS_BATCH``   — batch size (default 32768)
* ``REPRO_BENCH_FAULTS_JSON``    — path to write the result JSON
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.analysis import format_table
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.faults import parse_fault_plan
from repro.runtime import ShardedEngine
from repro.stream import round_robin, zipf_stream

ITEMS = int(os.environ.get("REPRO_BENCH_FAULTS_ITEMS", 200_000))
SITES = int(os.environ.get("REPRO_BENCH_FAULTS_SITES", 16))
WORKERS = int(os.environ.get("REPRO_BENCH_FAULTS_WORKERS", 2))
BATCH = int(os.environ.get("REPRO_BENCH_FAULTS_BATCH", 32_768))
JSON_PATH = os.environ.get("REPRO_BENCH_FAULTS_JSON")
SAMPLE = 16
SEED = 1
REPS = 7  # timing repetitions of the fault-free run (best-of)


def _make_stream():
    rng = random.Random(0)
    return round_robin(zipf_stream(ITEMS, rng, alpha=1.2), SITES)


def _run_once(stream, engine):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=SITES, sample_size=SAMPLE),
        seed=SEED,
        engine=engine,
    )
    t0 = time.perf_counter()
    proto.run(stream)
    return time.perf_counter() - t0, proto


def _fingerprint(proto):
    return (proto.sample_with_keys(), proto.counters.snapshot())


def _bench(report_fn):
    stream = _make_stream()
    engine = ShardedEngine(batch_size=BATCH, workers=WORKERS)
    best = best_proto = None
    try:
        for _ in range(REPS):
            elapsed, proto = _run_once(stream, engine)
            if best is None or elapsed < best:
                best, best_proto = elapsed, proto
        mode = engine.last_run_stats.get("mode")
        # Fault leg: a planned kill on the warm pool degrades the run.
        engine.fault_plan = parse_fault_plan("kill:1:2")
        recovery_seconds, chaos_proto = _run_once(stream, engine)
        chaos_mode = engine.last_run_stats.get("mode")
    finally:
        engine.close()
    recovery_identical = _fingerprint(chaos_proto) == _fingerprint(best_proto)

    rows = [
        {
            "run": "fault-free",
            "mode": mode,
            "seconds": round(best, 4),
            "items_per_sec": round(ITEMS / best),
        },
        {
            "run": "kill:1:2",
            "mode": chaos_mode,
            "seconds": round(recovery_seconds, 4),
            "items_per_sec": round(ITEMS / recovery_seconds),
        },
    ]
    report_fn(
        format_table(
            rows,
            title=f"fault degradation: sharded weighted SWOR, "
            f"{ITEMS} items, k={SITES}, s={SAMPLE}, {WORKERS} workers",
            caption=f"kill:1:2 sample and counters identical to the "
            f"fault-free run: {recovery_identical}",
        )
    )
    if JSON_PATH:
        result = {
            "items": ITEMS,
            "sites": SITES,
            "sample_size": SAMPLE,
            "workers": WORKERS,
            "batch_size": BATCH,
            "run_mode": mode,
            "supervised_seconds": round(best, 4),
            "supervised_items_per_sec": round(ITEMS / best),
            "recovery_mode": chaos_mode,
            "recovery_identical": recovery_identical,
            "recovery_seconds": round(recovery_seconds, 4),
        }
        with open(JSON_PATH, "w") as fh:
            json.dump(result, fh, indent=2)
    return mode, chaos_mode, recovery_identical


def test_fault_free_run_and_kill_degradation(benchmark, report):
    mode, chaos_mode, recovery_identical = benchmark.pedantic(
        lambda: _bench(report), rounds=1, iterations=1
    )
    assert mode == "sharded", f"fault-free run fell back (mode {mode!r})"
    assert chaos_mode == "degraded", f"kill:1:2 run ended {chaos_mode!r}"
    assert recovery_identical, "the degraded run was not bit-identical"
