"""Deeper coverage: rarely-exercised paths, parameter corners, and a
throughput smoke test."""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.centralized import (
    SkipWeightedReservoirSWOR,
    WeightedReservoirSWOR,
)
from repro.core import (
    DistributedUnweightedSWOR,
    DistributedWeightedSWOR,
    DistributedWeightedSWR,
    SworConfig,
)
from repro.l1 import L1Tracker
from repro.net.messages import EARLY, EPOCH_UPDATE, Message
from repro.stream import (
    Item,
    contiguous_blocks,
    round_robin,
    uniform_stream,
    unit_stream,
    zipf_stream,
)


class TestLazyBitModeFullProtocol:
    def test_protocol_correct_with_bit_counting(self):
        """count_bits changes the RNG consumption pattern but must not
        change protocol semantics (valid sample, sane messages)."""
        k, s = 4, 8
        rng = random.Random(1)
        items = zipf_stream(3000, rng, alpha=1.3)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=k, sample_size=s, count_bits=True), seed=2
        )
        counters = proto.run(round_robin(items, k))
        assert len(proto.sample()) == s
        assert counters.total > 0
        report = proto.resource_report()
        assert report["bits_generated"] > 0
        assert report["mean_bits_per_exponential"] < 70  # bounded by MAX_BITS

    def test_lazy_early_messages_unaffected(self):
        cfg = SworConfig(num_sites=2, sample_size=2, count_bits=True)
        from repro.core import SworSite

        site = SworSite(0, cfg, np.random.default_rng(3))
        msgs = site.on_item(Item(0, 100.0))
        assert msgs[0].kind == EARLY  # withholding happens before keys


class TestContiguousPartition:
    """One site sees the whole prefix — the maximally stale-view case."""

    def test_weighted_protocol_completes_and_sizes(self):
        k, s = 8, 16
        rng = random.Random(4)
        items = uniform_stream(5000, rng, low=1.0, high=50.0)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=k, sample_size=s), seed=5
        )
        stream = contiguous_blocks(items, k)
        counters = proto.run(stream)
        assert len(proto.sample()) == s
        # Stale sites over-send but the coordinator filter keeps the
        # accepted count near s + epochs.
        assert proto.coordinator.regular_accepted <= counters.upstream

    def test_unweighted_protocol_on_blocks(self):
        proto = DistributedUnweightedSWOR(4, 8, seed=6)
        proto.run(contiguous_blocks(unit_stream(4000), 4))
        assert len(proto.sample()) == 8


class TestFractionalWeights:
    def test_swr_accepts_fractional_weights(self):
        """The min-of-uniforms key extends continuously below/between
        integers; weights >= 1 but non-integral must work."""
        items = [Item(i, 1.0 + 0.37 * (i % 5)) for i in range(500)]
        proto = DistributedWeightedSWR(4, 8, seed=7)
        proto.run(round_robin(items, 4))
        assert len(proto.sample()) == 8

    def test_swor_fractional_weights(self):
        items = [Item(i, 1.5 + (i % 3) * 0.25) for i in range(500)]
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=2, sample_size=4), seed=8
        )
        proto.run(round_robin(items, 2))
        assert len(proto.sample()) == 4


class TestL1LargeEpochBase:
    def test_r_above_two_path(self):
        """k >> s forces r = k/s > 2 in the L1 tracker's epoch logic."""
        tracker = L1Tracker(
            64, eps=0.3, delta=0.3, seed=9,
            sample_size_override=8, duplication_override=16,
        )
        assert tracker.r == 8.0
        counters = tracker.run(round_robin(unit_stream(5000), 64))
        assert counters.total > 0
        # Small s gives weak concentration; only sanity-check the scale.
        assert 0.2 * 5000 < tracker.estimate() < 5.0 * 5000

    def test_single_item_stream(self):
        tracker = L1Tracker(
            2, eps=0.3, delta=0.3, seed=10,
            sample_size_override=16, duplication_override=32,
        )
        tracker.process(0, Item(0, 7.0))
        assert tracker.estimate() == pytest.approx(7.0, rel=0.6)


class TestSkipSamplerAgreement:
    def test_thresholds_track_plain_sampler(self):
        """On a long stream, A-ExpJ's threshold must be statistically
        indistinguishable from the plain sampler's (same law)."""
        n, s, reps = 20000, 16, 5
        plain_thresholds, skip_thresholds = [], []
        for rep in range(reps):
            rng1, rng2 = random.Random(rep), random.Random(rep + 100)
            plain = WeightedReservoirSWOR(s, rng1)
            skip = SkipWeightedReservoirSWOR(s, rng2)
            stream_rng = random.Random(rep + 200)
            for i in range(n):
                item = Item(i, stream_rng.uniform(1.0, 10.0))
                plain.insert(item)
                skip.insert(item)
            plain_thresholds.append(plain.threshold)
            skip_thresholds.append(skip.threshold)
        mean_plain = sum(plain_thresholds) / reps
        mean_skip = sum(skip_thresholds) / reps
        assert 0.3 < mean_skip / mean_plain < 3.0


class TestEpochUpdateStaleness:
    def test_stale_site_oversends_but_coordinator_filters(self):
        """A site that never receives epoch updates (simulated by
        feeding items directly) over-sends; the coordinator's
        Algorithm 2 line 19 check keeps the sample law intact."""
        cfg = SworConfig(num_sites=2, sample_size=2)
        from repro.core import SworCoordinator

        coord = SworCoordinator(cfg, np.random.default_rng(11))
        from repro.net.messages import REGULAR

        # Feed keys directly with decreasing values: later ones fall
        # below the threshold and must be rejected silently.
        coord.on_message(0, Message(REGULAR, (0, 1.0, 100.0)))
        coord.on_message(0, Message(REGULAR, (1, 1.0, 90.0)))
        coord.on_message(0, Message(REGULAR, (2, 1.0, 1.0)))
        coord.on_message(0, Message(REGULAR, (3, 1.0, 0.5)))
        assert coord.regular_received == 4
        assert coord.regular_accepted == 2
        assert {i.ident for i in coord.sample()} == {0, 1}


class TestThroughput:
    def test_core_protocol_throughput_floor(self):
        """Loose smoke test: the site hot path must stay lightweight
        (> 20k items/s on any modern machine; typical is far higher)."""
        k, s, n = 8, 16, 40000
        rng = random.Random(12)
        items = zipf_stream(n, rng, alpha=1.3)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=k, sample_size=s), seed=13
        )
        stream = round_robin(items, k)
        start = time.perf_counter()
        proto.run(stream)
        elapsed = time.perf_counter() - start
        assert n / elapsed > 20_000, f"throughput {n/elapsed:.0f} items/s"


class TestControlMessageEdges:
    def test_epoch_update_equal_threshold_ok(self):
        from repro.core import SworSite

        site = SworSite(0, SworConfig(num_sites=2, sample_size=2), np.random.default_rng(14))
        site.on_control(Message(EPOCH_UPDATE, (4.0,)))
        site.on_control(Message(EPOCH_UPDATE, (4.0,)))  # idempotent
        assert site._threshold == 4.0

    def test_level_saturated_idempotent(self):
        from repro.core import SworSite
        from repro.net.messages import LEVEL_SATURATED

        site = SworSite(0, SworConfig(num_sites=2, sample_size=2), np.random.default_rng(15))
        site.on_control(Message(LEVEL_SATURATED, (3,)))
        site.on_control(Message(LEVEL_SATURATED, (3,)))
        assert (site._saturated_mask >> 3) & 1
