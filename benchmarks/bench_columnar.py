"""Columnar runtime benchmark: the zero-object data plane at scale.

The claims of the columnar runtime, pinned at the million-item scale
the ROADMAP's north star demands:

1. **Throughput and parity** — the columnar engine's items/sec on a
   1M-item / 64-site weighted-SWOR run is recorded for the baseline
   trajectory, with **bit-identical** samples *and* message counters
   whether the stream arrives as ``Item`` objects or as columns (the
   zero-object input buys speed, never different answers).
2. **Memory** — building a million-item stream as a
   :class:`~repro.stream.columns.ColumnarStream` (chunked generation,
   no ``Item`` list ever materialized) must peak at **>= 4x less**
   memory (tracemalloc) than the ``Item``-list construction of an
   equivalent :class:`~repro.stream.item.DistributedStream`.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_columnar.py -q

A second case (``test_columnar_protocol_coverage``) pins the PR-4
claim: **every** protocol — SWR, unweighted SWOR, the L1 tracker, the
residual heavy-hitter tracker, and the sliding-window sampler — has a
native columnar path that is **>= 2x** items/sec over the per-item
path (the default ``on_columns`` hook, which loops ``on_item``,
reconstructed by rebinding it on every site; per-item ``insert`` for
the sliding window), while staying **bit-identical** in samples and
message counters between the ``Item``-backed and the columnar stream.
Each path's time is the median of ``PROTOCOL_REPS`` repetitions,
interleaved per-item/columnar after one warm-up each.

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_COL_ITEMS``        — stream length (default 1000000)
* ``REPRO_BENCH_COL_SITES``        — number of sites (default 64)
* ``REPRO_BENCH_COL_MIN_MEM_RATIO``— memory-ratio gate (default 4.0)
* ``REPRO_BENCH_COL_JSON``         — path to write the result as JSON
* ``REPRO_BENCH_COLP_MIN_SPEEDUP`` — per-protocol columnar-vs-per-item
  gate (default 2.0)
* ``REPRO_BENCH_COLP_HH_MIN_SPEEDUP`` — the residual-HH gate (default
  1.5; its SWOR site was already vectorized before PR 4)
* ``REPRO_BENCH_COLP_JSON``        — protocol-coverage JSON path
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
import tracemalloc
import types

from repro.analysis import format_table
from repro.common.rng import RandomSource
from repro.core import DistributedUnweightedSWOR, DistributedWeightedSWOR, SworConfig
from repro.core.swr import DistributedWeightedSWR
from repro.extensions import SlidingWindowWeightedSWOR
from repro.heavy_hitters import ResidualHeavyHitterTracker
from repro.l1 import L1Tracker
from repro.runtime.interfaces import SiteAlgorithm
from repro.stream import Item, round_robin, zipf_stream
from repro.stream.columns import ColumnarStream, columnar_zipf_stream

ITEMS = int(os.environ.get("REPRO_BENCH_COL_ITEMS", 1_000_000))
SITES = int(os.environ.get("REPRO_BENCH_COL_SITES", 64))
MIN_MEM_RATIO = float(os.environ.get("REPRO_BENCH_COL_MIN_MEM_RATIO", 4.0))
JSON_PATH = os.environ.get("REPRO_BENCH_COL_JSON")
MIN_PROTOCOL_SPEEDUP = float(os.environ.get("REPRO_BENCH_COLP_MIN_SPEEDUP", 2.0))
# The residual-HH tracker's SWOR site was already vectorized in PR 1
# and pack-native in PR 3, so its per-item reconstruction strips more
# history than for the protocols that first went columnar in PR 4 —
# the honest remaining margin is smaller and noisier; gate it lower.
MIN_HH_SPEEDUP = float(
    os.environ.get(
        "REPRO_BENCH_COLP_HH_MIN_SPEEDUP", min(1.5, MIN_PROTOCOL_SPEEDUP)
    )
)
PROTOCOL_JSON_PATH = os.environ.get("REPRO_BENCH_COLP_JSON")
SAMPLE = 16
SEED = 1
REPS = 3  # timing repetitions per engine (best-of)
#: Protocol-coverage repetitions per path, interleaved per-item/columnar
#: after one warm-up each, so host noise hits both sides alike; each
#: path records its median.
PROTOCOL_REPS = 7


def _make_stream():
    rng = random.Random(0)
    stream = round_robin(zipf_stream(ITEMS, rng, alpha=1.2), SITES)
    stream.arrays()  # build the SoA cache outside the timed regions
    return stream


def _run_once(stream, engine):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=SITES, sample_size=SAMPLE),
        seed=SEED,
        engine=engine,
    )
    t0 = time.perf_counter()
    proto.run(stream)
    return time.perf_counter() - t0, proto


def _measure(stream, engine):
    best_time, proto = min(
        (_run_once(stream, engine) for _ in range(REPS)),
        key=lambda pair: pair[0],
    )
    return best_time, proto


def _measure_memory():
    """Peak tracemalloc bytes: Item-list construction vs chunked columns."""
    tracemalloc.start()
    items = zipf_stream(ITEMS, random.Random(0), alpha=1.2)
    stream = round_robin(items, SITES)
    object_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del items, stream
    tracemalloc.start()
    columnar = columnar_zipf_stream(ITEMS, SITES, seed=0, alpha=1.2)
    columnar_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del columnar
    return object_peak, columnar_peak


def _bench(report_fn):
    stream = _make_stream()
    col_time, col_proto = _measure(stream, "columnar")
    # End-to-end zero-object: the same run off a ColumnarStream must
    # agree with the Item-backed one.
    cs = ColumnarStream.from_distributed(stream)
    cs_time, cs_proto = _measure(cs, "columnar")

    samples_identical = (
        col_proto.sample_with_keys() == cs_proto.sample_with_keys()
    )
    counters_identical = (
        col_proto.counters.snapshot() == cs_proto.counters.snapshot()
    )
    object_peak, columnar_peak = _measure_memory()
    mem_ratio = object_peak / columnar_peak

    rows = [
        {
            "engine": "columnar (DistributedStream)",
            "seconds": round(col_time, 4),
            "items_per_sec": round(ITEMS / col_time),
        },
        {
            "engine": "columnar (ColumnarStream)",
            "seconds": round(cs_time, 4),
            "items_per_sec": round(ITEMS / cs_time),
        },
    ]
    result = {
        "items": ITEMS,
        "sites": SITES,
        "sample_size": SAMPLE,
        "columnar_seconds": round(col_time, 4),
        "columnar_stream_seconds": round(cs_time, 4),
        "columnar_items_per_sec": round(ITEMS / col_time),
        "samples_identical": samples_identical,
        "counters_identical": counters_identical,
        "object_construction_peak_bytes": object_peak,
        "columnar_construction_peak_bytes": columnar_peak,
        "memory_ratio": round(mem_ratio, 3),
        "min_memory_ratio": MIN_MEM_RATIO,
        "messages_total": col_proto.counters.total,
    }
    report_fn(
        format_table(
            rows,
            title=f"columnar runtime: weighted SWOR, {ITEMS} items, "
            f"k={SITES}, s={SAMPLE}",
            caption=f"samples identical: {samples_identical}, counters identical: "
            f"{counters_identical}; stream construction peak "
            f"{object_peak / 1e6:.1f} MB (objects) vs "
            f"{columnar_peak / 1e6:.1f} MB (columns) = {mem_ratio:.2f}x "
            f"(target >= {MIN_MEM_RATIO}x)",
        )
    )
    if JSON_PATH:
        with open(JSON_PATH, "w") as fh:
            json.dump(result, fh, indent=2)
    return result


def test_columnar_speedup_and_parity(benchmark, report):
    result = benchmark.pedantic(lambda: _bench(report), rounds=1, iterations=1)
    assert result["samples_identical"], (
        "columnar samples diverged between Item-backed and columnar streams"
    )
    assert result["counters_identical"], (
        "columnar message counters diverged between Item-backed and "
        "columnar streams"
    )
    assert result["memory_ratio"] >= MIN_MEM_RATIO, (
        f"columnar construction only {result['memory_ratio']:.2f}x lighter "
        f"than the Item list (target >= {MIN_MEM_RATIO}x)"
    )


# ---------------------------------------------------------------------------
# Protocol coverage: every subcommand's protocol on the columnar plane
# ---------------------------------------------------------------------------


def _force_per_item(instance):
    """Rebind the default per-item ``on_columns`` hook on every site —
    the ``on_item`` loop these protocols ran before gaining native
    vectorized hooks (the honest baseline for the columnar gain) — and
    turn the SWOR window step off (a ``prepare_window`` that runs no
    pass), which would otherwise draw every run's keys in bulk and fold
    quiet windows as one pack.  The coordinator's pack folds are
    counted into ``network.pack_folds``: the per-item leg must fold
    none."""
    network = getattr(instance, "network", None)
    if network is None:
        network = instance.protocol.network  # tracker facades (HH)
    for site in network.sites:
        site.on_columns = types.MethodType(SiteAlgorithm.on_columns, site)
        if hasattr(site, "prepare_window"):
            site.prepare_window = lambda *args: None
    coordinator = network.coordinator
    fold_pack = coordinator.on_message_pack
    network.pack_folds = 0

    def counted_fold(site_id, pack):
        network.pack_folds += 1
        return fold_pack(site_id, pack)

    coordinator.on_message_pack = counted_fold
    return instance


def _time_run(build, stream):
    instance = build()
    t0 = time.perf_counter()
    instance.run(stream)
    return time.perf_counter() - t0, instance


def _interleaved_medians(per_item, columnar):
    """Time two ``() -> (seconds, result)`` runs: one warm-up each,
    then ``PROTOCOL_REPS`` interleaved repetitions.  Returns each
    side's median seconds and its last result."""
    per_item()
    columnar()
    per_item_times, columnar_times = [], []
    for _ in range(PROTOCOL_REPS):
        elapsed, per_item_result = per_item()
        per_item_times.append(elapsed)
        elapsed, columnar_result = columnar()
        columnar_times.append(elapsed)
    return (
        statistics.median(per_item_times),
        per_item_result,
        statistics.median(columnar_times),
        columnar_result,
    )


def _protocol_cases():
    """(name, build(engine), fingerprint) per protocol; one shared
    zipf stream replayed by all of them."""

    def swr(engine):
        return DistributedWeightedSWR(SITES, SAMPLE, seed=SEED, engine=engine)

    def unweighted(engine):
        return DistributedUnweightedSWOR(SITES, SAMPLE, seed=SEED, engine=engine)

    def l1(engine):
        return L1Tracker(
            SITES, 0.1, seed=SEED, sample_size_override=64,
            duplication_override=32, engine=engine,
        )

    def hh(engine):
        return ResidualHeavyHitterTracker(SITES, 0.05, seed=SEED, engine=engine)

    def fp_swr(p):
        return (
            p.counters.snapshot(),
            tuple((i.ident, i.weight) if i else None for i in p.coordinator._slots),
        )

    def fp_unweighted(p):
        return p.counters.snapshot(), tuple(
            (i.ident, k) for i, k in p.sample_with_keys()
        )

    def fp_l1(t):
        return t.counters.snapshot(), t.estimate()

    def fp_hh(t):
        return t.counters.snapshot(), tuple(
            (i.ident, i.weight) for i in t.heavy_hitters()
        )

    return [
        ("swr", swr, fp_swr),
        ("unweighted", unweighted, fp_unweighted),
        ("l1", l1, fp_l1),
        ("hh", hh, fp_hh),
    ]


def _bench_protocols(report_fn):
    stream = _make_stream()
    columnar_stream = ColumnarStream.from_distributed(stream)
    rows = []
    result = {
        "items": ITEMS,
        "sites": SITES,
        "min_speedup": MIN_PROTOCOL_SPEEDUP,
    }
    all_parity = True
    for name, build, fingerprint in _protocol_cases():
        per_item_time, per_item_proto, columnar_time, columnar_proto = (
            _interleaved_medians(
                lambda: _time_run(
                    lambda: _force_per_item(build("columnar")), stream
                ),
                lambda: _time_run(lambda: build("columnar"), columnar_stream),
            )
        )
        per_item_network = getattr(per_item_proto, "network", None)
        if per_item_network is None:
            per_item_network = per_item_proto.protocol.network
        # The per-item leg stays per-item: no window pack (no pack at
        # all) reaches its coordinator, the HH leg's included.
        assert per_item_network.pack_folds == 0, (
            f"the per-item {name} leg folded {per_item_network.pack_folds} packs"
        )
        _, item_stream_proto = _time_run(lambda: build("columnar"), stream)
        parity = fingerprint(item_stream_proto) == fingerprint(columnar_proto)
        all_parity = all_parity and parity
        speedup = per_item_time / columnar_time
        rows.append(
            {
                "protocol": name,
                "per_item_s": round(per_item_time, 3),
                "columnar_s": round(columnar_time, 3),
                "columnar_items_per_sec": round(ITEMS / columnar_time),
                "speedup_vs_per_item": round(speedup, 2),
                "bit_identical": parity,
            }
        )
        result[f"{name}_speedup"] = round(speedup, 3)
        result[f"{name}_columnar_items_per_sec"] = round(ITEMS / columnar_time)
        result[f"{name}_bit_identical"] = parity

    # Sliding window: per-item insert() vs the chunked columnar path
    # (bit-identical by construction — same draws — asserted anyway).
    sw_items = max(1, ITEMS // 10)
    weights = columnar_stream.weights[:sw_items]
    idents = columnar_stream.idents[:sw_items]
    item_objs = [Item(int(e), float(w)) for e, w in zip(idents, weights)]

    def sw_per_item():
        sampler = SlidingWindowWeightedSWOR(SAMPLE, RandomSource(SEED).generator("sw"))
        t0 = time.perf_counter()
        for item in item_objs:
            sampler.insert(item)
        return time.perf_counter() - t0, sampler

    def sw_columnar():
        sampler = SlidingWindowWeightedSWOR(SAMPLE, RandomSource(SEED).generator("sw"))
        t0 = time.perf_counter()
        sampler.insert_columns(idents, weights)
        return time.perf_counter() - t0, sampler

    sw_per_item_time, per_item, sw_columnar_time, chunked = _interleaved_medians(
        sw_per_item, sw_columnar
    )
    sw_parity = per_item.sample_with_keys() == chunked.sample_with_keys()
    all_parity = all_parity and sw_parity
    sw_speedup = sw_per_item_time / sw_columnar_time
    rows.append(
        {
            "protocol": f"sliding-window ({sw_items} items)",
            "per_item_s": round(sw_per_item_time, 3),
            "columnar_s": round(sw_columnar_time, 3),
            "columnar_items_per_sec": round(sw_items / sw_columnar_time),
            "speedup_vs_per_item": round(sw_speedup, 2),
            "bit_identical": sw_parity,
        }
    )
    result["sliding_window_items"] = sw_items
    result["sliding_window_speedup"] = round(sw_speedup, 3)
    result["sliding_window_columnar_items_per_sec"] = round(
        sw_items / sw_columnar_time
    )
    result["sliding_window_bit_identical"] = sw_parity
    result["all_bit_identical"] = all_parity

    report_fn(
        format_table(
            rows,
            title=f"columnar protocol coverage: {ITEMS} items, k={SITES}, "
            f"s={SAMPLE}",
            caption="speedup_vs_per_item compares the native columnar path "
            "against the per-item site hooks these protocols ran before "
            "(target >= "
            f"{MIN_PROTOCOL_SPEEDUP}x each); bit_identical pins the run off "
            "the Item-backed stream == the run off the columnar stream.",
        )
    )
    if PROTOCOL_JSON_PATH:
        with open(PROTOCOL_JSON_PATH, "w") as fh:
            json.dump(result, fh, indent=2)
    return result


def test_columnar_protocol_coverage(benchmark, report):
    result = benchmark.pedantic(
        lambda: _bench_protocols(report), rounds=1, iterations=1
    )
    assert result["all_bit_identical"], (
        "a columnar protocol diverged between Item-backed and columnar streams"
    )
    for name in ("swr", "unweighted", "l1", "hh", "sliding_window"):
        gate = MIN_HH_SPEEDUP if name == "hh" else MIN_PROTOCOL_SPEEDUP
        speedup = result[f"{name}_speedup"]
        assert speedup >= gate, (
            f"{name} columnar path only {speedup:.2f}x over the per-item "
            f"path (target >= {gate}x)"
        )
