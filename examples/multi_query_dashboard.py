#!/usr/bin/env python3
"""Multi-query dashboard: many live answers from one stream pass.

Simulates a monitoring dashboard over a distributed search-query log:
a catalog of heterogeneous queries — subset sums, quantiles, a
group-by, an item count, residual heavy hitters, and total-weight
tracking — all answered concurrently by :class:`repro.query.MultiQueryDriver`
from a *single* shared pass of the stream.  Snapshots taken at
checkpoints show every answer evolving as the stream flows, and the
final answers are compared with exact ground truth.

Run:  python examples/multi_query_dashboard.py
"""

from __future__ import annotations

import random

from repro.analysis import format_table
from repro.query import (
    CountQuery,
    GroupByQuery,
    HeavyHittersQuery,
    MultiQueryDriver,
    QuantileQuery,
    QueryCatalog,
    SubsetSumQuery,
    TotalWeightQuery,
)
from repro.stream import round_robin, zipf_stream


def main() -> None:
    k, n, s = 16, 80_000, 64
    rng = random.Random(2019)
    items = zipf_stream(n, rng, alpha=1.2, universe=5_000)
    stream = round_robin(items, k)

    catalog = QueryCatalog(
        [
            SubsetSumQuery("total traffic", sample_size=s),
            SubsetSumQuery(
                "premium users",  # idents 0..499 are "premium"
                predicate=lambda item: item.ident < 500,
                sample_size=s,
            ),
            QuantileQuery("cost quantiles", qs=(0.5, 0.99), sample_size=s),
            GroupByQuery(
                "per shard", key=lambda item: item.ident % 4, sample_size=s
            ),
            CountQuery("request count", sample_size=s),
            HeavyHittersQuery("hot queries", eps=0.1),
            TotalWeightQuery("metered total", eps=0.25, delta=0.1),
        ]
    )

    driver = MultiQueryDriver(catalog, num_sites=k, seed=7, engine="columnar")
    checkpoints = [n // 4, n // 2, 3 * n // 4, n]
    result = driver.run(stream, checkpoints=checkpoints)

    print(f"{len(catalog)} concurrent queries, one pass over n={n}, k={k} sites")
    print()
    print("live dashboard (subset-sum answers per checkpoint):")
    for t in result.checkpoints:
        snap = result.answers_at(t)
        total = snap["total traffic"]
        premium = snap["premium users"]
        count = snap["request count"]
        print(
            f"  t={t:>6}  total={total.value:>12.4g} "
            f"[{total.ci_low:.4g}, {total.ci_high:.4g}]  "
            f"premium={premium.value:>10.4g}  requests~{count.value:>10.4g}"
        )
    print()

    truth_total = stream.total_weight()
    truth_premium = sum(i.weight for i in items if i.ident < 500)
    rows = []
    for name, truth in [
        ("total traffic", truth_total),
        ("premium users", truth_premium),
        ("request count", float(n)),
        ("metered total", truth_total),
    ]:
        estimate = result.answers[name]
        rows.append(
            {
                "query": name,
                "estimate": estimate.value,
                "ci95": f"[{estimate.ci_low:.4g}, {estimate.ci_high:.4g}]",
                "truth": truth,
                "rel_err": estimate.rel_error(truth),
                "covered": estimate.covers(truth),
            }
        )
    print(format_table(rows, title="final answers vs exact ground truth"))

    quantiles = result.answers["cost quantiles"]
    print("cost quantiles:", ", ".join(f"q{q:g}={e.value:.4g}" for q, e in sorted(quantiles.items())))
    shards = result.answers["per shard"]
    print("per shard:", ", ".join(f"shard{g}={e.value:.4g}" for g, e in sorted(shards.items())))
    hot = result.answers["hot queries"]
    print("hot queries:", [item.ident for item in hot[:8]])
    messages = sum(c.total for c in result.counters.values())
    print(f"total messages across all {len(catalog)} protocols: {messages}")


if __name__ == "__main__":
    main()
