"""Experiment E9: the Section 5 message-complexity table, reproduced.

The paper's only table compares five rows of L1-tracking message
complexity.  We reproduce it two ways:

1. *closed forms at paper scale* — evaluating each row's formula at
   large (k, W) shows the orderings the paper claims (this work beats
   [23] and [14]+folklore once k >= 1/eps^2, and meets its own lower
   bound up to log factors);
2. *measured at simulator scale* — all three upper-bound protocols run
   on identical streams; the k-scaling separation (our k/log k epoch
   term vs the baselines' k and k/eps site terms) is visible as a much
   flatter growth in k for this work.

The measured table runs on both engines: ``reference`` (the paper's
synchronous round model) and ``columnar`` at its default batch size.
"""

from __future__ import annotations

import pytest

from repro.analysis import bounds, format_table
from repro.l1 import DeterministicCounterTracker, HyzStyleTracker, L1Tracker
from repro.stream import round_robin, unit_stream

DELTA = 0.25
N = 30000


def test_section5_table_closed_forms(benchmark, report):
    """The table rows evaluated at paper-scale parameters."""

    def run():
        rows = []
        for k, eps in ((10**4, 0.1), (10**6, 0.01)):
            w = 1e12
            rows.append(
                {
                    "k": k,
                    "eps": eps,
                    "[14]+folklore O(k logW / eps)": bounds.l1_upper_cmyz_folklore(
                        k, eps, w
                    ),
                    "[23] O(k logW + sqrt(k) logW/eps)": bounds.l1_upper_hyz(
                        k, eps, DELTA, w
                    ),
                    "this work O(k logW/log k + logW/eps^2)": bounds.l1_upper_this_work(
                        k, eps, DELTA, w
                    ),
                    "[23] lower": bounds.l1_lower_hyz(k, eps, w),
                    "this work lower": bounds.l1_lower_this_work(k, w),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            rows,
            title="E9a (Section 5 table): closed forms at paper scale (W=1e12)",
            caption="for k >= 1/eps^2 this work's upper bound is smallest "
            "and within log factors of its lower bound",
        )
    )
    for row in rows:
        ours = row["this work O(k logW/log k + logW/eps^2)"]
        assert ours < row["[14]+folklore O(k logW / eps)"]
        assert ours < row["[23] O(k logW + sqrt(k) logW/eps)"]
        assert ours >= row["this work lower"] * 0.9


@pytest.mark.parametrize("engine", ["reference", "columnar"])
def test_section5_table_measured(benchmark, report, engine):
    """Measured messages for the three upper-bound trackers, sweeping k."""

    def run():
        eps = 0.25
        rows = []
        for k in (16, 64, 256):
            stream = round_robin(unit_stream(N), k)
            det = DeterministicCounterTracker(k, eps, engine=engine)
            c_det = det.run(round_robin(unit_stream(N), k))
            hyz = HyzStyleTracker(k, eps, seed=k, engine=engine)
            c_hyz = hyz.run(round_robin(unit_stream(N), k))
            ours = L1Tracker(k, eps=eps, delta=DELTA, seed=k + 1, engine=engine)
            c_ours = ours.run(stream)
            rows.append(
                {
                    "k": k,
                    "eps": eps,
                    "det_[14]": c_det.total,
                    "hyz_[23]": c_hyz.total,
                    "this_work": c_ours.total,
                    "ours_bound": bounds.l1_upper_this_work(
                        k, eps, DELTA, float(N)
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # Growth factors across the 16x sweep in k.
    det_growth = rows[-1]["det_[14]"] / rows[0]["det_[14]"]
    ours_growth = rows[-1]["this_work"] / rows[0]["this_work"]
    for row in rows:
        row["det_growth"] = row["det_[14]"] / rows[0]["det_[14]"]
        row["ours_growth"] = row["this_work"] / rows[0]["this_work"]
    report(
        format_table(
            rows,
            title=(
                "E9b (Section 5 table): measured messages, unit stream, "
                f"eps=0.25, {engine}"
            ),
            caption="sweeping k 16x: the baselines' k-linear site terms grow "
            "~16x while this work's k-dependence is only the k/log k epoch "
            "broadcasts on top of a k-independent eps^-2 term",
        )
    )
    assert ours_growth < det_growth, (
        "this work's message growth in k must be flatter than the "
        "deterministic baseline's"
    )
