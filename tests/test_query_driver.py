"""Tests for the concurrent multi-query driver (repro.query.driver).

The load-bearing property is *standalone parity*: every query the
driver carries through its shared pass must end with exactly the
sample (and message counters) a standalone run of the same protocol
with the same derived seed would produce — under the columnar engine for
the shared vectorized pass, and under the reference engine for
``engine="reference"``.
"""

from __future__ import annotations

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.query import (
    CountQuery,
    Estimate,
    GroupByQuery,
    HeavyHittersQuery,
    MeanWeightQuery,
    MultiQueryDriver,
    QuantileQuery,
    QueryCatalog,
    SlidingWindowQuery,
    SubsetSumQuery,
    TotalWeightQuery,
    WeightedMeanQuery,
    query_seed,
)
from repro.stream import round_robin, zipf_stream


def _stream(n=20_000, k=8, seed=3):
    return round_robin(zipf_stream(n, random.Random(seed), alpha=1.2), k)


def _swor_queries(count, s=32):
    return [
        SubsetSumQuery(
            f"q{i}",
            predicate=(lambda m: lambda item: item.ident % count == m)(i),
            sample_size=s,
        )
        for i in range(count)
    ]


class TestGoldenParity:
    def test_single_query_matches_standalone_columnar(self):
        """The pinned golden property: a driver carrying one query is
        bit-identical to a standalone columnar-engine run."""
        stream = _stream()
        driver = MultiQueryDriver(
            QueryCatalog([SubsetSumQuery("only", sample_size=16)]),
            num_sites=8,
            seed=9,
        )
        driver.run(stream)
        standalone = DistributedWeightedSWOR(
            SworConfig(num_sites=8, sample_size=16),
            seed=query_seed(9, "only"),
            engine="columnar",
        )
        standalone.run(stream)
        instance = driver["only"]
        assert instance.protocol.sample_with_keys() == standalone.sample_with_keys()
        assert instance.counters.snapshot() == standalone.counters.snapshot()

    def test_fused_queries_match_standalones(self):
        """Same-config queries go through the fused site path; each
        must still match its own standalone run exactly."""
        stream = _stream()
        queries = _swor_queries(4)
        driver = MultiQueryDriver(QueryCatalog(queries), num_sites=8, seed=5)
        driver.run(stream)
        assert any(
            type(c).__name__ == "_FusedSworGroup" for c in driver._consumers()
        )
        for query in queries:
            standalone = DistributedWeightedSWOR(
                SworConfig(num_sites=8, sample_size=32),
                seed=query_seed(5, query.name),
                engine="columnar",
            )
            standalone.run(stream)
            instance = driver[query.name]
            assert (
                instance.protocol.sample_with_keys()
                == standalone.sample_with_keys()
            ), query.name
            assert (
                instance.counters.snapshot() == standalone.counters.snapshot()
            ), query.name

    def test_fuse_off_is_equivalent(self):
        stream = _stream(n=8_000)
        queries = _swor_queries(3)
        fused = MultiQueryDriver(QueryCatalog(queries), num_sites=8, seed=1)
        plain = MultiQueryDriver(
            QueryCatalog(queries), num_sites=8, seed=1, fuse=False
        )
        fused.run(stream)
        plain.run(stream)
        for query in queries:
            assert (
                fused[query.name].protocol.sample_with_keys()
                == plain[query.name].protocol.sample_with_keys()
            )
            assert (
                fused[query.name].counters.snapshot()
                == plain[query.name].counters.snapshot()
            )

    def test_reference_engine_matches_reference_run(self):
        stream = _stream(n=3_000)
        driver = MultiQueryDriver(
            QueryCatalog([SubsetSumQuery("ref", sample_size=16)]),
            num_sites=8,
            seed=4,
            engine="reference",
        )
        driver.run(stream)
        standalone = DistributedWeightedSWOR(
            SworConfig(num_sites=8, sample_size=16), seed=query_seed(4, "ref")
        )
        standalone.run(stream)  # default = reference engine
        instance = driver["ref"]
        assert instance.protocol.sample_with_keys() == standalone.sample_with_keys()
        assert instance.counters.snapshot() == standalone.counters.snapshot()


class TestHeterogeneousCatalog:
    @pytest.fixture(scope="class")
    def result(self):
        stream = _stream(n=15_000)
        catalog = QueryCatalog(
            [
                SubsetSumQuery(
                    "even", predicate=lambda i: i.ident % 2 == 0, sample_size=32
                ),
                QuantileQuery("median", qs=(0.5,), sample_size=32),
                GroupByQuery("mod3", key=lambda i: i.ident % 3, sample_size=32),
                CountQuery("count", sample_size=32),
                WeightedMeanQuery("wmean", sample_size=32),
                MeanWeightQuery("mean", sample_size=32),
                TotalWeightQuery("l1", eps=0.3, delta=0.2),
                HeavyHittersQuery("hh", eps=0.2),
                SlidingWindowQuery("recent", window=2_000, sample_size=32),
            ]
        )
        driver = MultiQueryDriver(catalog, num_sites=8, seed=11)
        return driver.run(stream, checkpoints=[1_000, 7_500]), stream

    def test_all_queries_answered(self, result):
        res, _ = result
        assert set(res.answers) == {
            "even",
            "median",
            "mod3",
            "count",
            "wmean",
            "mean",
            "l1",
            "hh",
            "recent",
        }

    def test_answer_types(self, result):
        res, _ = result
        assert isinstance(res.answers["even"], Estimate)
        assert isinstance(res.answers["median"], dict)
        assert all(isinstance(e, Estimate) for e in res.answers["median"].values())
        assert isinstance(res.answers["mod3"], dict)
        assert isinstance(res.answers["count"], Estimate)
        assert isinstance(res.answers["l1"], Estimate)
        assert isinstance(res.answers["hh"], list)
        assert isinstance(res.answers["recent"], Estimate)

    def test_estimates_are_sane(self, result):
        res, stream = result
        w = stream.total_weight()
        truth_even = sum(i.weight for i in stream.items if i.ident % 2 == 0)
        assert res.answers["even"].value == pytest.approx(truth_even, rel=0.8)
        assert res.answers["l1"].value == pytest.approx(w, rel=0.4)
        assert res.answers["count"].value == pytest.approx(len(stream), rel=0.5)

    def test_counters_cover_network_backed_queries(self, result):
        res, _ = result
        # The sliding-window query is centralized: no message counters.
        assert "recent" not in res.counters
        assert all(res.counters[name].total > 0 for name in ("even", "l1", "hh"))

    def test_checkpoints_snapshot_every_query(self, result):
        res, _ = result
        assert res.checkpoints == [1_000, 7_500]
        for t in res.checkpoints:
            snapshot = res.answers_at(t)
            assert set(snapshot) == set(res.answers)
        with pytest.raises(ConfigurationError):
            res.answers_at(123)

    def test_items_processed(self, result):
        res, stream = result
        assert res.items_processed == len(stream)


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryCatalog([SubsetSumQuery("a"), SubsetSumQuery("a")])

    def test_empty_driver_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiQueryDriver(QueryCatalog(), num_sites=4)

    def test_stream_site_mismatch_rejected(self):
        driver = MultiQueryDriver([SubsetSumQuery("a")], num_sites=4)
        with pytest.raises(ConfigurationError):
            driver.run(_stream(n=100, k=8))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiQueryDriver([SubsetSumQuery("a")], num_sites=4, engine="warp")
        with pytest.raises(ConfigurationError):
            MultiQueryDriver([SubsetSumQuery("a")], num_sites=4, engine="batched")

    @pytest.mark.parametrize("option", ["batch_size", "initial_batch_size"])
    def test_reference_engine_rejects_batch_sizes(self, option):
        """Like ``get_engine("reference", batch_size=...)``: a batch size
        the reference engine would silently ignore is an error."""
        with pytest.raises(
            ConfigurationError, match=f"engine 'reference' does not take a {option}"
        ):
            MultiQueryDriver(
                [SubsetSumQuery("a")],
                num_sites=4,
                engine="reference",
                **{option: 512},
            )
        driver = MultiQueryDriver(
            [SubsetSumQuery("a")], num_sites=4, engine="reference"
        )
        assert driver.batch_size == driver.initial_batch_size == 1

    def test_unknown_query_lookup(self):
        driver = MultiQueryDriver([SubsetSumQuery("a")], num_sites=4)
        with pytest.raises(ConfigurationError):
            driver["nope"]

    def test_query_seed_deterministic_and_name_sensitive(self):
        assert query_seed(1, "a") == query_seed(1, "a")
        assert query_seed(1, "a") != query_seed(1, "b")
        assert query_seed(1, "a") != query_seed(2, "a")


class TestReusedDriver:
    def test_checkpoints_cumulative_across_runs(self):
        """A reused driver keeps one clock, like the engines."""
        first = _stream(n=1_000)
        second = _stream(n=1_000, seed=8)
        driver = MultiQueryDriver(
            [SubsetSumQuery("t", sample_size=16)], num_sites=8, seed=6
        )
        res1 = driver.run(first, checkpoints=[400])
        res2 = driver.run(second, checkpoints=[1_500])
        assert res1.checkpoints == [400]
        assert res2.checkpoints == [1_500]  # 500 items into stream 2
        assert driver.items_processed == 2_000
        # Per-run offsets (here: 1500 counted from this run's start)
        # are out of the cumulative window and must be dropped.
        third = driver.run(_stream(n=1_000, seed=9), checkpoints=[500])
        assert third.checkpoints == []


class TestLiveAnswers:
    def test_answers_available_mid_stream(self):
        """answers() is valid at every step (continuous monitoring)."""
        stream = _stream(n=2_000)
        driver = MultiQueryDriver(
            [SubsetSumQuery("total", sample_size=16)], num_sites=8, seed=2
        )
        res = driver.run(stream, checkpoints=[500])
        early_estimate = res.answers_at(500)["total"]
        final_estimate = res.answers["total"]
        # The stream keeps growing, so the early total-weight estimate
        # must be (much) smaller than the final one.
        assert 0 < early_estimate.value < final_estimate.value
