"""Experiments E1-E3: Theorem 3's message complexity, empirically.

Theorem 3 claims ``O(k·log(W/s)/log(1+k/s))`` expected messages.  Three
sweeps check the three structural features of that bound:

* E1 — messages grow *linearly in log W* (ratio to the bound stays flat
  as the stream grows multiplicatively);
* E2 — messages grow *sublinearly in k* once ``k >> s`` (the
  ``log(1+k/s)`` denominator kicks in);
* E3 — cost is *additive* ``Õ(k + s)``, not multiplicative ``Õ(ks)``:
  the naive per-site-top-s protocol pays ~s-fold more as ``s`` grows.

Each sweep runs on both engines: ``reference`` (the paper's synchronous
round model) and ``columnar`` at its default batch size, whose small,
ramp-heavy windows take the SWOR window step — stretches folded whole,
runs cut at every saturation and epoch advance — and must keep every
claim.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    format_table,
    messages_vs_sample_size,
    messages_vs_sites,
    messages_vs_weight,
)
from repro.stream import zipf_stream


ENGINES = pytest.mark.parametrize("engine", ["reference", "columnar"])


def _zipf(rng, n):
    return zipf_stream(n, rng, alpha=1.3)


@ENGINES
def test_messages_vs_total_weight(benchmark, report, engine):
    """E1: flat measured/bound ratio across a 16x growth in stream size."""

    def run():
        return messages_vs_weight(
            _zipf, weight_steps=[4000, 16000, 64000], k=32, s=64, reps=2,
            engine=engine,
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            rows,
            columns=["k", "s", "W", "messages", "early", "regular",
                     "downstream", "bound", "ratio"],
            title=f"E1 (Theorem 3): messages vs total weight W, {engine}",
            caption="ratio = measured / [k log(W/s)/log(1+k/s)] should stay flat",
        )
    )
    ratios = [row["ratio"] for row in rows]
    assert max(ratios) / min(ratios) < 4.0, "ratio drifts: not linear in log W"


@ENGINES
def test_messages_vs_sites(benchmark, report, engine):
    """E2: sublinear growth in k for fixed stream and s."""

    def run():
        return messages_vs_sites(
            _zipf, n=30000, site_steps=[4, 16, 64, 256], s=16, reps=2,
            engine=engine,
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            rows,
            columns=["k", "s", "W", "messages", "early", "regular",
                     "downstream", "bound", "ratio"],
            title=f"E2 (Theorem 3): messages vs number of sites k, {engine}",
            caption="64x more sites must cost << 64x messages",
        )
    )
    growth = rows[-1]["messages"] / rows[0]["messages"]
    k_growth = rows[-1]["k"] / rows[0]["k"]
    assert growth < k_growth / 2.0, "message growth is not sublinear in k"


@ENGINES
def test_messages_vs_sample_size_vs_naive(benchmark, report, engine):
    """E3: additive O(k+s) against the naive multiplicative O(ks)."""

    def run():
        return messages_vs_sample_size(
            _zipf, n=30000, k=64, sample_steps=[4, 16, 64], reps=2,
            include_naive=True, engine=engine,
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            rows,
            columns=["k", "s", "messages", "naive_messages",
                     "naive_over_ours", "bound", "ratio"],
            title=(
                "E3 (Theorem 3 vs Section 1.2 naive): messages vs sample size s, "
                + engine
            ),
            caption="naive_over_ours should favor this work as k/s grows",
        )
    )
    # The naive multiplicative cost pulls ahead of ours as s grows.
    assert rows[-1]["naive_over_ours"] > 2.0
    assert rows[-1]["naive_over_ours"] > rows[0]["naive_over_ours"]
