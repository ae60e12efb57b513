"""Extension benchmarks: sliding-window SWOR space and cascade agreement.

Not paper experiments per se — they quantify the Section 6 extension
(sliding windows) and the [7] cascade oracle this reproduction adds:

* sliding-window candidate-set size should grow like ``s·log(n/s)``,
  not ``n`` (flat measured/bound ratio);
* cascade sampling and exponential-key sampling must agree (two
  independent implementations of Definition 1).
"""

from __future__ import annotations

import math
import random
from collections import Counter

from repro.analysis import format_table
from repro.centralized import WeightedReservoirSWOR
from repro.common.rng import RandomSource
from repro.extensions import CascadeWeightedSWOR, SlidingWindowWeightedSWOR
from repro.stream import Item


def test_sliding_window_space(benchmark, report):
    def run():
        rows = []
        s = 16
        for n in (2000, 8000, 32000):
            sw = SlidingWindowWeightedSWOR(s, RandomSource(n).generator("sw"))
            rng = random.Random(n + 1)
            for i in range(n):
                sw.insert(Item(i, rng.uniform(1.0, 10.0)))
            bound = s * math.log(n / s)
            rows.append(
                {
                    "n": n,
                    "s": s,
                    "retained": sw.retained_count(),
                    "s*log(n/s)": bound,
                    "ratio": sw.retained_count() / bound,
                    "vs_buffering": sw.retained_count() / n,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            rows,
            title="Extension (Section 6): sliding-window SWOR candidate-set size",
            caption="retained candidates track s*log(n/s); buffering the "
            "window would cost n",
        )
    )
    ratios = [row["ratio"] for row in rows]
    assert max(ratios) / min(ratios) < 3.0
    assert rows[-1]["vs_buffering"] < 0.05


def test_cascade_vs_exponential_keys(benchmark, report):
    """Two independent Definition 1 implementations, one law."""
    weights = [1.0, 4.0, 9.0, 2.0, 16.0, 3.0]
    s, trials = 2, 5000

    def run():
        cascade_counts, es_counts = Counter(), Counter()
        for t in range(trials):
            cascade = CascadeWeightedSWOR(s, random.Random(t))
            es = WeightedReservoirSWOR(s, random.Random(t + 10**6))
            for i, w in enumerate(weights):
                item = Item(i, w)
                cascade.insert(item)
                es.insert(item)
            for item in cascade.sample():
                cascade_counts[item.ident] += 1
            for item in es.sample():
                es_counts[item.ident] += 1
        return cascade_counts, es_counts

    cascade_counts, es_counts = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "item": i,
            "weight": w,
            "cascade[7]": cascade_counts.get(i, 0) / trials,
            "exp_keys[18]": es_counts.get(i, 0) / trials,
        }
        for i, w in enumerate(weights)
    ]
    report(
        format_table(
            rows,
            title="Extension: cascade sampling [7] vs exponential keys [18]",
            caption=f"both implement Definition 1; trials={trials}",
        )
    )
    for row in rows:
        assert abs(row["cascade[7]"] - row["exp_keys[18]"]) < 0.035
