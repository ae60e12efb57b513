"""Experiments E8 + E11: the lower-bound constructions, measured.

Theorems 5 and 7 build adversarial streams on which *any* correct
tracker must send Omega(k·log(W)/log(k) + log(W)/eps) messages.  We run
our (correct) upper-bound algorithms on exactly those streams and check
the measured counts sit between the Omega lower bound and the O() upper
bound — i.e. the constructions really do extract the predicted cost.

Each runs on both engines: ``reference`` (the paper's synchronous round
model) and ``columnar`` at its default batch size, and must keep every
bound.
"""

from __future__ import annotations

import pytest

from repro.analysis import bounds, format_table
from repro.heavy_hitters import ResidualHeavyHitterTracker
from repro.l1 import DeterministicCounterTracker, L1Tracker
from repro.stream import (
    epoch_weight_stream,
    geometric_growth_stream,
    round_robin,
    single_site,
    unit_stream,
)


ENGINES = pytest.mark.parametrize("engine", ["reference", "columnar"])


@ENGINES
def test_hh_lower_bound_stream(benchmark, report, engine):
    """E8: the (1+eps)^i growth stream (every update is a heavy hitter)
    and the per-epoch k^i stream (every epoch forces k messages)."""

    def run():
        rows = []
        # Construction 1: geometric growth — Omega(log(W)/eps) answer
        # changes; run on one site so all cost is epistemic, not fan-out.
        import math

        for eps in (0.2, 0.1):
            items = geometric_growth_stream(eps, total_weight=1e7)
            w = sum(i.weight for i in items)
            tracker = ResidualHeavyHitterTracker(
                1, eps, delta=0.1, seed=3, engine=engine
            )
            counters = tracker.run(single_site(items))
            # This construction extracts the log(W)/eps term.
            lower = math.log(w) / eps
            rows.append(
                {
                    "stream": "(1+eps)^i",
                    "k": 1,
                    "eps": eps,
                    "n": len(items),
                    "W": w,
                    "messages": counters.total,
                    "lower_bound": lower,
                    "measured/lower": counters.total / lower,
                }
            )
        # Construction 2: per-epoch k^i weights, round-robin.
        for k in (8, 32):
            num_epochs = 6
            items = epoch_weight_stream(k, num_epochs)
            w = sum(i.weight for i in items)
            eps = 0.25
            tracker = ResidualHeavyHitterTracker(
                k, eps, delta=0.1, seed=4, engine=engine
            )
            counters = tracker.run(round_robin(items, k))
            # This construction extracts the k·log(W)/log(k) term.
            lower = bounds.l1_lower_this_work(k, w)
            rows.append(
                {
                    "stream": "k^i epochs",
                    "k": k,
                    "eps": eps,
                    "n": len(items),
                    "W": w,
                    "messages": counters.total,
                    "lower_bound": lower,
                    "measured/lower": counters.total / lower,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            rows,
            title=f"E8 (Theorem 5): heavy-hitter lower-bound streams, {engine}",
            caption="each construction targets one Omega term "
            "(logW/eps for growth, k·logW/log k for epochs); "
            "measured/lower >= ~1 confirms the constructions bite",
        )
    )
    for row in rows:
        assert row["messages"] >= 0.6 * row["lower_bound"]


@ENGINES
def test_l1_lower_bound_stream(benchmark, report, engine):
    """E11: L1 trackers on the Theorem 7 constructions."""

    def run():
        rows = []
        # Growth stream: the estimate must change Omega(log(W)/eps)
        # times; the deterministic tracker shows the floor exactly.
        for eps in (0.2, 0.1):
            items = geometric_growth_stream(eps, total_weight=1e7)
            w = sum(i.weight for i in items)
            det = DeterministicCounterTracker(1, eps, engine=engine)
            c_det = det.run(single_site(items))
            lower = bounds.l1_lower_hyz(1, eps, w)
            rows.append(
                {
                    "stream": "(1+eps)^i",
                    "tracker": "deterministic",
                    "k": 1,
                    "eps": eps,
                    "messages": c_det.total,
                    "lower_bound": lower,
                    "measured/lower": c_det.total / lower,
                }
            )
        # Unit-weight epoch stream: Omega(k log(W)/log(k)).
        for k in (8, 32):
            n = 30000
            items = unit_stream(n)
            eps = 0.25
            tracker = L1Tracker(k, eps=eps, delta=0.25, seed=5, engine=engine)
            counters = tracker.run(round_robin(items, k))
            lower = bounds.l1_lower_this_work(k, float(n))
            rows.append(
                {
                    "stream": "unit epochs",
                    "tracker": "this work",
                    "k": k,
                    "eps": eps,
                    "messages": counters.total,
                    "lower_bound": lower,
                    "measured/lower": counters.total / lower,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            rows,
            title=f"E11 (Theorem 7): L1 lower-bound streams, {engine}",
            caption="measured >= Omega bound on the adversarial streams",
        )
    )
    for row in rows:
        assert row["messages"] >= 0.5 * row["lower_bound"]
