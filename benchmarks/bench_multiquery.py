"""Multi-query driver benchmark: one shared pass vs N sequential runs.

The tentpole claim of the query subsystem: answering ``NQ`` concurrent
queries through :class:`repro.query.MultiQueryDriver`'s shared batched
pass must be **>= 2x** faster (items/sec) than running the same queries
one at a time on the batched engine — while producing **identical**
per-query samples (same derived seeds) and message counts within
**1.05x**.

The 8 benchmark queries are heterogeneous estimation queries (subset
sums, quantiles, a group-by, a frequency, a mean) that all compile onto
same-config weighted SWOR instances, which is exactly the fleet the
driver's fused site-side pass amortizes: per batch it computes the
per-site grouping, level indices, early/regular split, and shared EARLY
message objects once, leaving only per-query RNG draws, threshold
filters, and coordinator work.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_multiquery.py -q

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_MQ_ITEMS``       — stream length (default 200000)
* ``REPRO_BENCH_MQ_SITES``       — number of sites (default 32)
* ``REPRO_BENCH_MQ_MIN_SPEEDUP`` — speedup gate (default 2.0)
* ``REPRO_BENCH_MQ_JSON``        — path to write the result as JSON
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.analysis import format_table
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.query import (
    FrequencyQuery,
    GroupByQuery,
    MeanWeightQuery,
    MultiQueryDriver,
    QuantileQuery,
    QueryCatalog,
    SubsetSumQuery,
    query_seed,
)
from repro.stream import round_robin, zipf_stream

ITEMS = int(os.environ.get("REPRO_BENCH_MQ_ITEMS", 200_000))
SITES = int(os.environ.get("REPRO_BENCH_MQ_SITES", 32))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MQ_MIN_SPEEDUP", 2.0))
JSON_PATH = os.environ.get("REPRO_BENCH_MQ_JSON")
SAMPLE = 64
ROOT_SEED = 11
REPS = 3  # timing repetitions (best-of)
MAX_MESSAGE_RATIO = 1.05


def _make_queries():
    def mod_pred(m):
        return lambda item: item.ident % 8 == m

    return [
        SubsetSumQuery("sum_mod0", predicate=mod_pred(0), sample_size=SAMPLE),
        SubsetSumQuery("sum_mod1", predicate=mod_pred(1), sample_size=SAMPLE),
        SubsetSumQuery("sum_mod2", predicate=mod_pred(2), sample_size=SAMPLE),
        SubsetSumQuery("total", sample_size=SAMPLE),
        QuantileQuery("quantiles", qs=(0.5, 0.9), sample_size=SAMPLE),
        GroupByQuery("groups", key=lambda item: item.ident % 4, sample_size=SAMPLE),
        FrequencyQuery("freq", ident=0, relative=True, sample_size=SAMPLE),
        MeanWeightQuery("mean", sample_size=SAMPLE),
    ]


def _make_stream():
    rng = random.Random(0)
    return round_robin(zipf_stream(ITEMS, rng, alpha=1.2), SITES)


def _run_sequential(stream, names):
    """The same queries one at a time: one standalone batched-engine
    protocol per query, with the driver's derived per-query seed."""
    protos = {}
    t0 = time.perf_counter()
    for name in names:
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=query_seed(ROOT_SEED, name),
            engine="batched",
        )
        proto.run(stream)
        protos[name] = proto
    return time.perf_counter() - t0, protos


def _run_shared(stream, queries):
    driver = MultiQueryDriver(QueryCatalog(queries), num_sites=SITES, seed=ROOT_SEED)
    t0 = time.perf_counter()
    driver.run(stream)
    return time.perf_counter() - t0, driver


def _bench(report_fn):
    queries = _make_queries()
    names = [q.name for q in queries]
    stream = _make_stream()
    stream.arrays()  # build the SoA cache outside the timed regions

    # Runs are seed-deterministic, so any repetition's protocols serve
    # for the sample/message checks — keep the best time of REPS.
    seq_time, seq_protos = min(
        (_run_sequential(stream, names) for _ in range(REPS)),
        key=lambda pair: pair[0],
    )
    shared_time, driver = min(
        (_run_shared(stream, queries) for _ in range(REPS)),
        key=lambda pair: pair[0],
    )

    speedup = seq_time / shared_time
    identical = 0
    worst_ratio = 0.0
    per_query = []
    for name in names:
        instance = driver[name]
        standalone = seq_protos[name]
        same = (
            instance.protocol.sample_with_keys() == standalone.sample_with_keys()
        )
        identical += same
        ratio = instance.counters.total / standalone.counters.total
        worst_ratio = max(worst_ratio, ratio)
        per_query.append(
            {
                "query": name,
                "sample_identical": same,
                "messages_shared": instance.counters.total,
                "messages_sequential": standalone.counters.total,
                "ratio": round(ratio, 4),
            }
        )
    result = {
        "items": ITEMS,
        "sites": SITES,
        "sample_size": SAMPLE,
        "num_queries": len(queries),
        "sequential_seconds": round(seq_time, 4),
        "shared_seconds": round(shared_time, 4),
        "sequential_items_per_sec": round(ITEMS * len(queries) / seq_time),
        "shared_items_per_sec": round(ITEMS * len(queries) / shared_time),
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
        "identical_samples": identical,
        "worst_message_ratio": round(worst_ratio, 4),
        "per_query": per_query,
    }
    report_fn(
        format_table(
            per_query,
            title=f"multi-query shared pass: {len(queries)} queries, "
            f"{ITEMS} items, k={SITES}, s={SAMPLE}",
            caption=f"sequential {seq_time:.3f}s vs shared {shared_time:.3f}s "
            f"-> speedup {speedup:.2f}x (target >= {MIN_SPEEDUP}x), "
            f"worst message ratio {worst_ratio:.3f}x (target <= "
            f"{MAX_MESSAGE_RATIO}x)",
        )
    )
    if JSON_PATH:
        with open(JSON_PATH, "w") as fh:
            json.dump(result, fh, indent=2)
    return result


def test_shared_pass_beats_sequential(benchmark, report):
    result = benchmark.pedantic(lambda: _bench(report), rounds=1, iterations=1)
    assert result["identical_samples"] == result["num_queries"], (
        f"only {result['identical_samples']}/{result['num_queries']} "
        "per-query samples matched the standalone runs"
    )
    assert result["worst_message_ratio"] <= MAX_MESSAGE_RATIO, (
        f"message overhead {result['worst_message_ratio']:.3f}x exceeds "
        f"{MAX_MESSAGE_RATIO}x"
    )
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"shared pass only {result['speedup']:.2f}x faster than sequential "
        f"(target >= {MIN_SPEEDUP}x)"
    )
