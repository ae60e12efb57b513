#!/usr/bin/env python3
"""Sliding-window weighted sampling — the paper's Section 6 extension.

Maintains one sampler over a long weighted stream and answers
weighted-SWOR queries for several window sizes at once, using expected
O(s·log n) space instead of buffering the window.  A traffic burst in
the recent past shows up in small-window samples and fades from larger
ones.

Run:  python examples/sliding_window_sampling.py
"""

from __future__ import annotations

import random

from repro.common.rng import RandomSource
from repro.extensions import SlidingWindowWeightedSWOR
from repro.stream import Item


def main() -> None:
    s, n = 8, 60_000
    rng = random.Random(11)
    sampler = SlidingWindowWeightedSWOR(s, RandomSource(12).generator("sliding-window"))

    # Background traffic, with a burst of heavy items near the end
    # (positions n-6000 .. n-5000, weight 100x background).
    for i in range(n):
        if n - 6000 <= i < n - 5000:
            weight = rng.uniform(200.0, 400.0)
        else:
            weight = rng.uniform(1.0, 5.0)
        sampler.insert(Item(i, weight))

    print(f"stream: {n} items, burst of heavy items at positions "
          f"{n-6000}..{n-5000}")
    print(f"retained candidates: {sampler.retained_count()} "
          f"(vs {n} to buffer everything)")
    print()
    for window in (2_000, 10_000, 60_000):
        sample = sampler.sample(window=window)
        burst_hits = sum(1 for it in sample if n - 6000 <= it.ident < n - 5000)
        print(f"window={window:>6}: sample of {len(sample)}, "
              f"{burst_hits} from the burst")
    print()
    print("the burst dominates the 10k window (it holds most of that "
          "window's weight), is absent from the last-2k window, and is "
          "diluted in the full-stream sample")


if __name__ == "__main__":
    main()
