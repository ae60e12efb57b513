"""Query & estimation subsystem: answers over live protocol samples.

The protocols of :mod:`repro.core` maintain samples; this package turns
them into *answers*:

* :mod:`repro.query.estimators` — Horvitz–Thompson subset-sum / count /
  mean / frequency and weighted-quantile estimators over ``(item, key)``
  samples, each returning an :class:`Estimate` with a variance /
  confidence-interval object;
* :mod:`repro.query.model` — declarative :class:`Query` specs and the
  :class:`QueryCatalog` that registers them;
* :mod:`repro.query.backends` — compilation of specs onto protocol
  instances (weighted/unweighted SWOR, SWR, L1, sliding window);
* :mod:`repro.query.driver` — the :class:`MultiQueryDriver`, which runs
  every registered query concurrently over **one shared pass** of a
  distributed stream, amortizing the columnar engine's vectorized
  site-side work across queries while keeping each query's sample
  bit-identical to a standalone run.

Quickstart::

    import random
    from repro.query import MultiQueryDriver, QueryCatalog, SubsetSumQuery
    from repro.stream import round_robin, zipf_stream

    stream = round_robin(zipf_stream(100_000, random.Random(0)), 16)
    catalog = QueryCatalog([
        SubsetSumQuery("even", predicate=lambda it: it.ident % 2 == 0),
        SubsetSumQuery("total"),
    ])
    result = MultiQueryDriver(catalog, num_sites=16, seed=7).run(stream)
    print(result.answers["even"])      # Estimate with a 95% CI
"""

from .estimators import (
    Estimate,
    count_from_uniform_sample,
    frequency,
    group_by_sum,
    ht_pairs,
    inclusion_probability,
    mean_weight,
    subset_count,
    subset_sum,
    swr_mean,
    total_weight_estimate,
    weighted_quantile,
)
from .model import (
    CountQuery,
    FrequencyQuery,
    GroupByQuery,
    HeavyHittersQuery,
    MeanWeightQuery,
    QuantileQuery,
    Query,
    QueryCatalog,
    SlidingWindowQuery,
    SubsetSumQuery,
    TotalWeightQuery,
    WeightedMeanQuery,
)
from .backends import CompiledQuery, compile_query, query_seed
from .driver import MultiQueryDriver, MultiQueryResult

__all__ = [
    # estimators
    "Estimate",
    "inclusion_probability",
    "ht_pairs",
    "subset_sum",
    "total_weight_estimate",
    "subset_count",
    "mean_weight",
    "frequency",
    "group_by_sum",
    "weighted_quantile",
    "count_from_uniform_sample",
    "swr_mean",
    # model
    "Query",
    "SubsetSumQuery",
    "CountQuery",
    "MeanWeightQuery",
    "FrequencyQuery",
    "GroupByQuery",
    "QuantileQuery",
    "HeavyHittersQuery",
    "TotalWeightQuery",
    "WeightedMeanQuery",
    "SlidingWindowQuery",
    "QueryCatalog",
    # backends / driver
    "CompiledQuery",
    "compile_query",
    "query_seed",
    "MultiQueryDriver",
    "MultiQueryResult",
]
