"""Fault-tolerance overhead gate: supervision must be ~free.

The tentpole claim of the sharded supervisor (see
``repro.runtime.sharded``): fault detection is piggybacked on the
transport the engine already uses — deadline-based waits instead of
blocking receives, one run-start checkpoint, wire validation the pack
decoder already performs — so

1. **Overhead** — a fault-free sharded weighted-SWOR run with
   supervision **on** (the default) must cost **<= 2%** wall time over
   the identical run with supervision **off** (best-of-``REPS`` on
   both sides, measured interleaved so clock drift hits both equally);
2. **Bit-parity** — samples AND message counters are identical with
   supervision on and off (the supervisor only *observes* until a
   fault actually fires);
3. **A fault degrades bit-identically** — a planned ``kill`` fault on
   the warm pool finishes the run on the in-process columnar engine
   (``mode == "degraded"``) with the bit-identical sample and counters
   (recorded as ``recovery_identical``; ``recovery_seconds`` is the
   faulted run's wall time).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -q

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_FAULTS_ITEMS``        — stream length (default 200000)
* ``REPRO_BENCH_FAULTS_SITES``        — number of sites (default 16)
* ``REPRO_BENCH_FAULTS_WORKERS``      — worker processes (default 2)
* ``REPRO_BENCH_FAULTS_BATCH``        — batch size (default 32768)
* ``REPRO_BENCH_FAULTS_MAX_OVERHEAD`` — overhead gate (default 0.02)
* ``REPRO_BENCH_FAULTS_JSON``         — path to write the result JSON
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
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_FAULTS_MAX_OVERHEAD", 0.02))
JSON_PATH = os.environ.get("REPRO_BENCH_FAULTS_JSON")
SAMPLE = 16
SEED = 1
REPS = 7  # timing repetitions per side (best-of)


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
    # The only difference is the supervision delta (the run-start
    # checkpoint + deadline waits + heartbeats); both engines keep their
    # worker pools warm across the interleaved repetitions.
    supervised = ShardedEngine(
        batch_size=BATCH, workers=WORKERS, supervision="on"
    )
    unsupervised = ShardedEngine(
        batch_size=BATCH, workers=WORKERS, supervision="off"
    )
    base_best = live_best = None
    base_proto = live_proto = None
    mode = chaos_mode = None
    try:
        for _ in range(REPS):
            elapsed, proto = _run_once(stream, unsupervised)
            if base_best is None or elapsed < base_best:
                base_best, base_proto = elapsed, proto
            elapsed, proto = _run_once(stream, supervised)
            if live_best is None or elapsed < live_best:
                live_best, live_proto = elapsed, proto
        mode = supervised.last_run_stats.get("mode")
        # Fault leg: a planned kill on the warm pool degrades the run.
        supervised.fault_plan = parse_fault_plan("kill:1:2")
        recovery_seconds, chaos_proto = _run_once(stream, supervised)
        chaos_mode = supervised.last_run_stats.get("mode")
    finally:
        supervised.close()
        unsupervised.close()
    overhead = live_best / base_best - 1.0
    samples_identical = (
        base_proto.sample_with_keys() == live_proto.sample_with_keys()
    )
    counters_identical = (
        base_proto.counters.snapshot() == live_proto.counters.snapshot()
    )
    recovery_identical = _fingerprint(chaos_proto) == _fingerprint(live_proto)

    rows = [
        {
            "supervision": "off",
            "seconds": round(base_best, 4),
            "items_per_sec": round(ITEMS / base_best),
        },
        {
            "supervision": "on (default)",
            "seconds": round(live_best, 4),
            "items_per_sec": round(ITEMS / live_best),
        },
    ]
    report_fn(
        format_table(
            rows,
            title=f"supervision overhead: sharded weighted SWOR, "
            f"{ITEMS} items, k={SITES}, s={SAMPLE}, {WORKERS} workers",
            caption=f"overhead {overhead * 100:+.2f}% (gate <= "
            f"{MAX_OVERHEAD * 100:.0f}%), samples identical: "
            f"{samples_identical}, counters identical: "
            f"{counters_identical}; kill:1:2 ran {chaos_mode}, identical: "
            f"{recovery_identical}, in {recovery_seconds:.3f}s",
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
            "unsupervised_seconds": round(base_best, 4),
            "supervised_seconds": round(live_best, 4),
            "supervised_items_per_sec": round(ITEMS / live_best),
            "overhead": round(overhead, 4),
            "max_overhead": MAX_OVERHEAD,
            # Higher is better (~1.0): the gated cross-machine ratio.
            "supervision_ratio": round(base_best / live_best, 4),
            "samples_identical": samples_identical,
            "counters_identical": counters_identical,
            "recovery_mode": chaos_mode,
            "recovery_identical": recovery_identical,
            "recovery_seconds": round(recovery_seconds, 4),
        }
        with open(JSON_PATH, "w") as fh:
            json.dump(result, fh, indent=2)
    return (
        overhead,
        mode,
        samples_identical and counters_identical,
        chaos_mode,
        recovery_identical,
    )


def test_supervision_overhead_and_recovery(benchmark, report):
    overhead, mode, parity, chaos_mode, recovery_identical = (
        benchmark.pedantic(lambda: _bench(report), rounds=1, iterations=1)
    )
    assert mode == "sharded", f"supervised run fell back (mode {mode!r})"
    assert parity, "supervision changed the sample or the counters"
    assert chaos_mode == "degraded", f"kill:1:2 run ended {chaos_mode!r}"
    assert recovery_identical, "the degraded run was not bit-identical"
    assert overhead <= MAX_OVERHEAD, (
        f"supervision overhead {overhead * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% gate"
    )
