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
from repro.core import DistributedWeightedSWOR, SworConfig, SworSite
from repro.core.coordinator import SworCoordinator
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
    compile_query,
    query_seed,
)
from repro.runtime import ColumnarEngine
from repro.runtime.batched import DEFAULT_BATCH_SIZE, batch_windows
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
        """Every network-backed query — two same-config SWORs, heavy
        hitters, count, weighted mean and total weight — ends in the
        state of its own standalone columnar run: sample, counters,
        answers at every checkpoint, and the coordinator's and every
        site's ``snapshot_state()``, at several batch sizes."""
        stream = _stream()
        queries = _swor_queries(2) + [
            HeavyHittersQuery("hh", eps=0.2),
            CountQuery("count", sample_size=32),
            WeightedMeanQuery("mean", sample_size=32),
            TotalWeightQuery("total", eps=0.2),
        ]
        checkpoints = [5_000, 12_345, 20_000]
        for batch_size in (64, 1024, None):
            driver = MultiQueryDriver(
                QueryCatalog(queries), num_sites=8, seed=5, batch_size=batch_size
            )
            result = driver.run(stream, checkpoints=checkpoints)
            for query in queries:
                alone, answers = _standalone(query, stream, batch_size, checkpoints)
                ours = driver[query.name]
                assert alone.network is not ours.network
                label = (query.name, batch_size)
                assert answers == [
                    repr(result.answers_at(t)[query.name]) for t in checkpoints
                ], label
                assert _network_state(ours) == _network_state(alone), label
            # Every network's snapshots are real state — a value snapshot
            # or the interface default's pickled attributes — so the
            # comparison above is not vacuous for any query.
            for query in queries:
                network = driver[query.name].network
                assert network.coordinator.snapshot_state()
                assert all(site.snapshot_state() for site in network.sites)

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


class TestEngineInstance:
    def test_engine_instance_ramp_is_honoured(self):
        """An engine instance brings its own batch size: the driver's
        pass runs its schedule, so every query ends in the full state
        of a standalone run under the same engine settings."""
        stream = _stream()
        queries = _swor_queries(1) + [CountQuery("count", sample_size=32)]

        def engine():
            return ColumnarEngine(batch_size=256)

        driver = MultiQueryDriver(queries, 8, 5, engine=engine())
        driver.run(stream)
        assert driver.engine.last_run_stats["windows"] == len(
            list(batch_windows(len(stream), 256))
        )
        for query in queries:
            alone = compile_query(query, 8, 5)
            engine().run(alone.network, stream)
            assert _network_state(driver[query.name]) == _network_state(alone)


def _standalone(query, stream, batch_size, checkpoints):
    """``query`` compiled as the driver compiles it (seed 5, 8 sites)
    and run alone on the columnar engine; returns it with its answers
    at each checkpoint."""
    alone = compile_query(query, 8, 5)
    answers = []
    ColumnarEngine(batch_size=batch_size or DEFAULT_BATCH_SIZE).run(
        alone.network,
        stream,
        checkpoints=checkpoints,
        on_checkpoint=lambda t: answers.append(repr(alone.answer())),
    )
    return alone, answers


def _network_state(compiled) -> tuple:
    """A network-backed query's sample, counters and every
    ``snapshot_state()`` of its coordinator and sites."""
    owner = getattr(compiled, "protocol", None) or compiled.tracker
    if hasattr(owner, "sample_with_keys"):
        sample = owner.sample_with_keys()
    elif hasattr(owner, "sample"):
        sample = owner.sample()
    else:
        sample = owner.estimate()
    network = compiled.network
    return (
        sample,
        network.counters.snapshot(),
        network.coordinator.snapshot_state(),
        [site.snapshot_state() for site in network.sites],
    )


class TestSharedSplits:
    def test_split_count_does_not_grow_with_same_config_queries(
        self, monkeypatch
    ):
        """Same-config SWOR queries read every level split — the
        window's, and the rest of a window after each saturation —
        from the window's memo: a run with one query computes as many
        splits as a run with four or eight."""
        stream = round_robin(
            zipf_stream(60_000, random.Random(0), alpha=1.2), 16
        )
        split = SworSite._split
        calls = [0]

        def counted(site, weights):
            calls[0] += 1
            return split(site, weights)

        monkeypatch.setattr(SworSite, "_split", counted)
        saturating = [0]
        can_park = SworCoordinator.can_park

        def can_park_spy(coordinator, early_levels):
            refused = can_park(coordinator, early_levels)
            saturating[0] += refused is not None
            return refused

        monkeypatch.setattr(SworCoordinator, "can_park", can_park_spy)
        counts = []
        for count in (1, 4, 8):
            calls[0] = 0
            MultiQueryDriver(
                QueryCatalog(_swor_queries(count, s=64)), num_sites=16, seed=11
            ).run(stream)
            counts.append(calls[0])
        assert saturating[0] > 0  # windows split again after a saturation
        assert counts[0] > 0 and counts == [counts[0]] * 3


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

    @pytest.mark.parametrize("option", ["batch_size"])
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
            [SubsetSumQuery("a")], num_sites=8, engine="reference"
        )
        driver.run(_stream(n=300))
        # The reference round model: one arrival per window.
        assert driver.engine.last_run_stats["windows"] == 300

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
