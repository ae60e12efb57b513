"""Unit tests for the core building blocks: sample set, levels, epochs,
config, site, coordinator."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.common import ConfigurationError, ProtocolViolationError
from repro.core import (
    EpochTracker,
    LevelSetManager,
    SworConfig,
    SworCoordinator,
    SworSite,
    TopKeySample,
    level_of,
)
from repro.net.messages import (
    EARLY,
    EPOCH_UPDATE,
    LEVEL_SATURATED,
    Message,
    REGULAR,
)
from repro.stream import Item


class TestTopKeySample:
    def test_keeps_top_s(self):
        ts = TopKeySample(3)
        for i, key in enumerate([5.0, 1.0, 9.0, 3.0, 7.0]):
            ts.add(Item(i, 1.0), key)
        kept = {item.ident for item in ts.items()}
        assert kept == {0, 2, 4}  # keys 5, 9, 7

    def test_threshold_behavior(self):
        ts = TopKeySample(2)
        assert ts.threshold == 0.0
        ts.add(Item(0, 1.0), 4.0)
        assert ts.threshold == 0.0  # underfull
        ts.add(Item(1, 1.0), 6.0)
        assert ts.threshold == 4.0
        ts.add(Item(2, 1.0), 5.0)
        assert ts.threshold == 5.0

    def test_eviction_returns_displaced(self):
        ts = TopKeySample(1)
        assert ts.add(Item(0, 1.0), 2.0) is None
        displaced = ts.add(Item(1, 1.0), 5.0)
        assert displaced is not None and displaced.ident == 0
        # Below-threshold key: incoming item itself is displaced.
        rejected = ts.add(Item(2, 1.0), 1.0)
        assert rejected is not None and rejected.ident == 2

    def test_equal_minimal_keys_evict_oldest(self):
        ts = TopKeySample(2)
        ts.add(Item("a", 1.0), 1.0)
        ts.add(Item("b", 1.0), 1.0)
        assert [item.ident for item in ts.items()] == ["a", "b"]
        displaced = ts.add(Item("c", 1.0), 2.0)
        assert displaced is not None and displaced.ident == "a"
        assert [item.ident for item in ts.items()] == ["c", "b"]
        # Slot order is not arrival order: f takes e's freed slot ahead
        # of the older g, and g must still leave first.
        ts = TopKeySample(2)
        ts.add(Item("e", 1.0), 1.0)
        ts.add(Item("g", 1.0), 2.0)
        ts.add(Item("f", 1.0), 2.0)
        displaced = ts.add(Item("h", 1.0), 3.0)
        assert displaced is not None and displaced.ident == "g"
        assert [item.ident for item in ts.items()] == ["h", "f"]

    def test_entries_sorted(self):
        ts = TopKeySample(4)
        for i, key in enumerate([2.0, 8.0, 5.0]):
            ts.add(Item(i, 1.0), key)
        keys = [k for _, k in ts.entries()]
        assert keys == sorted(keys, reverse=True)

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            TopKeySample(0)


class TestLevelOf:
    def test_small_weights_level_zero(self):
        assert level_of(0.5, 2.0) == 0
        assert level_of(1.0, 2.0) == 0
        assert level_of(1.99, 2.0) == 0

    def test_bracket_membership(self):
        for r in (2.0, 3.5, 8.0):
            for w in (1.0, 2.0, 5.0, 64.0, 1000.0, 12345.6):
                j = level_of(w, r)
                if w < r:
                    assert j == 0
                else:
                    assert r**j <= w < r ** (j + 1)

    def test_exact_powers(self):
        assert level_of(8.0, 2.0) == 3
        assert level_of(9.0, 3.0) == 2

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            level_of(5.0, 1.5)


class TestLevelSetManager:
    def test_saturation_releases_batch(self):
        mgr = LevelSetManager(r=2.0, saturation_size=3)
        assert mgr.add(0, 4.0, 1.0) is None
        assert mgr.add(1, 5.0, 2.0) is None
        batch = mgr.add(2, 6.0, 3.0)
        assert batch == ([0, 1, 2], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0])
        assert mgr.is_saturated(2)  # level of weights 4..6 at r=2

    def test_post_saturation_add_is_violation(self):
        mgr = LevelSetManager(r=2.0, saturation_size=1)
        mgr.add(0, 4.0, 1.0)
        with pytest.raises(ProtocolViolationError):
            mgr.add(1, 4.5, 1.0)

    def test_pending_entries_and_weight(self):
        mgr = LevelSetManager(r=2.0, saturation_size=10)
        mgr.add(0, 4.0, 1.0)
        mgr.add(1, 100.0, 2.0)
        assert mgr.pending_count() == 2
        assert mgr.pending_weight() == pytest.approx(104.0)
        keys = {k for _, k in mgr.pending_entries()}
        assert keys == {1.0, 2.0}

    def test_levels_independent(self):
        mgr = LevelSetManager(r=2.0, saturation_size=2)
        mgr.add(0, 1.0, 1.0)  # level 0
        batch = mgr.add(1, 100.0, 2.0)  # level 6
        assert batch is None
        batch = mgr.add(2, 1.5, 3.0)  # saturates level 0
        assert batch is not None
        idents, _, _ = batch
        assert set(idents) == {0, 2}

    def test_lemma1_heaviness_invariant(self):
        """Items in a saturated batch are <= 1/(4s)-fraction of it:
        4rs same-level items within weight factor r (Lemma 1)."""
        s, r = 5, 2.0
        mgr = LevelSetManager(r=r, saturation_size=int(4 * r * s))
        rng = random.Random(1)
        batch = None
        i = 0
        while batch is None:
            w = rng.uniform(8.0, 15.999)  # all level 3 at r=2
            batch = mgr.add(i, w, 1.0)
            i += 1
        _, weights, _ = batch
        assert len(weights) == mgr.saturation_size
        total = sum(weights)
        for weight in weights:
            assert weight <= total / (4 * s) * (1 + 1e-9)

    def test_invalid_saturation_size(self):
        with pytest.raises(ConfigurationError):
            LevelSetManager(2.0, 0)

    def test_snapshot_restore_round_trip(self):
        """Snapshots copy the columns (later parking does not leak into
        them) and keep the buckets' first-appearance order."""
        mgr = LevelSetManager(r=2.0, saturation_size=3)
        mgr.add(0, 9.0, 1.5)  # level 3 first
        mgr.add(1, 1.0, 2.5)  # then level 0
        mgr.add(2, 9.5, 0.5)
        snapshot = mgr.snapshot_state()
        before = mgr.pending_columns()
        assert before == ([0, 2, 1], [9.0, 9.5, 1.0], [1.5, 0.5, 2.5])
        mgr.add(3, 1.5, 4.0)
        assert mgr.add(4, 12.0, 3.0) is not None  # saturates level 3
        mgr.add(5, 40.0, 1.0)
        assert mgr.snapshot_state() != snapshot
        mgr.restore_state(snapshot)
        assert mgr.snapshot_state() == snapshot
        assert mgr.pending_columns() == before
        assert not mgr.is_saturated(3)
        assert (mgr.early_items_received, mgr.levels_saturated) == (3, 0)
        mgr.add(6, 1.2, 7.0)  # the restored columns are copies too
        assert snapshot[0][0] == ([1], [1.0], [2.5])

    def test_pending_weight_sums_in_bucket_order(self):
        """A left fold over the buckets in first-appearance order, as
        over the ``(item, key)`` buckets it replaced."""
        mgr = LevelSetManager(r=2.0, saturation_size=3)
        for ident, weight in enumerate([1e16, 1.0, 3.0, 1.0]):  # levels 53, 0, 1, 0
            mgr.add(ident, weight, 1.0)
        assert mgr.pending_weight() == ((1e16 + 1.0) + 1.0) + 3.0
        mgr.add(4, 1.5, 1.0)  # saturates level 0: its weight leaves
        assert mgr.pending_weight() == 1e16 + 3.0

    def test_first_refused_and_park_equal_one_by_one_add(self):
        """``first_refused`` names the first early of a column that
        would saturate its level (or hits a saturated one); ``park``
        groups a column that all parks by level and ends where
        one-by-one ``add`` does, new levels in first-appearance
        order."""
        levels = np.array([3, 0, 3, 1, 0])
        idents = np.arange(5)
        weights = np.array([9.0, 1.0, 10.0, 2.0, 1.5])
        keys = [0.5, 1.5, 2.5, 3.5, 4.5]
        bulk = LevelSetManager(r=2.0, saturation_size=3)
        seq = LevelSetManager(r=2.0, saturation_size=3)
        assert bulk.first_refused(levels) is None
        bulk.park(levels, idents, weights, keys)
        for ident, weight, key in zip(idents.tolist(), weights.tolist(), keys):
            seq.add(ident, weight, key)
        assert bulk.snapshot_state() == seq.snapshot_state()
        assert list(bulk.snapshot_state()[0]) == [3, 0, 1]
        assert bulk.first_refused(np.array([1, 5])) is None
        assert bulk.first_refused(np.array([1, 3])) == 1  # level 3 would fill
        # Level 1 (one parked) fills at its second early, position 3;
        # level 3 (two parked) at its first, position 4: the first wins.
        assert bulk.first_refused(np.array([5, 1, 5, 1, 3])) == 3
        assert bulk.first_refused(np.array([3, 1, 1])) == 0
        assert bulk.add(9, 12.0, 1.0) == ([0, 2, 9], [9.0, 10.0, 12.0], [0.5, 2.5, 1.0])
        assert bulk.first_refused(np.array([1, 3])) == 1  # level 3 is saturated
        assert bulk.first_refused(np.array([3, 3])) == 0
        with pytest.raises(ProtocolViolationError):
            bulk.add(10, 9.0, 1.0)


class TestEpochTracker:
    def test_no_epoch_below_one(self):
        et = EpochTracker(2.0)
        assert et.observe_threshold(0.0) is None
        assert et.observe_threshold(0.9) is None
        assert et.epoch is None

    def test_first_epoch_announcement(self):
        et = EpochTracker(2.0)
        assert et.observe_threshold(1.5) == 1.0  # epoch 0, floor r^0
        assert et.epoch == 0

    def test_epoch_advance_and_value(self):
        et = EpochTracker(2.0)
        et.observe_threshold(1.5)
        assert et.observe_threshold(1.9) is None  # same epoch
        assert et.observe_threshold(4.5) == 4.0  # epoch 2
        assert et.epoch == 2

    def test_multi_epoch_jump_single_broadcast(self):
        et = EpochTracker(2.0)
        announce = et.observe_threshold(1000.0)
        assert announce == 2.0**9  # 512 <= 1000 < 1024
        assert et.broadcasts == 1

    def test_invalid_base(self):
        with pytest.raises(ConfigurationError):
            EpochTracker(1.0)


class TestSworConfig:
    def test_r_default(self):
        assert SworConfig(num_sites=4, sample_size=8).r == 2.0
        assert SworConfig(num_sites=64, sample_size=8).r == 8.0

    def test_r_override(self):
        cfg = SworConfig(num_sites=4, sample_size=8, epoch_base_override=4.0)
        assert cfg.r == 4.0

    def test_saturation_size(self):
        cfg = SworConfig(num_sites=4, sample_size=8)
        assert cfg.saturation_size == int(4 * 2.0 * 8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SworConfig(num_sites=0, sample_size=1)
        with pytest.raises(ConfigurationError):
            SworConfig(num_sites=1, sample_size=0)
        with pytest.raises(ConfigurationError):
            SworConfig(num_sites=1, sample_size=1, level_set_factor=0)
        with pytest.raises(ConfigurationError):
            SworConfig(num_sites=1, sample_size=1, epoch_base_override=1.5)


class TestSworSite:
    def _site(self, **cfg_kwargs):
        cfg = SworConfig(num_sites=4, sample_size=2, **cfg_kwargs)
        return SworSite(0, cfg, np.random.default_rng(7))

    def test_unsaturated_level_sends_early(self):
        site = self._site()
        msgs = site.on_item(Item(0, 5.0))
        assert len(msgs) == 1 and msgs[0].kind == EARLY
        assert msgs[0].payload == (0, 5.0)

    def test_saturated_level_sends_regular_or_nothing(self):
        site = self._site()
        level = level_of(5.0, 2.0)
        site.on_control(Message(LEVEL_SATURATED, (level,)))
        msgs = site.on_item(Item(0, 5.0))
        # Threshold is 0, so the key always passes -> regular message.
        assert len(msgs) == 1 and msgs[0].kind == REGULAR
        ident, weight, key = msgs[0].payload
        assert ident == 0 and weight == 5.0 and key > 0

    def test_threshold_filters(self):
        site = self._site()
        site.on_control(Message(LEVEL_SATURATED, (0,)))
        site.on_control(Message(EPOCH_UPDATE, (1e12,)))
        sent = sum(len(site.on_item(Item(i, 1.0))) for i in range(200))
        assert sent == 0  # P(key > 1e12 for w=1) is astronomically small

    def test_threshold_decrease_is_violation(self):
        site = self._site()
        site.on_control(Message(EPOCH_UPDATE, (8.0,)))
        with pytest.raises(ProtocolViolationError):
            site.on_control(Message(EPOCH_UPDATE, (4.0,)))

    def test_unknown_control_is_violation(self):
        with pytest.raises(ProtocolViolationError):
            self._site().on_control(Message("bogus", ()))

    def test_level_sets_disabled_never_early(self):
        site = self._site(level_sets_enabled=False)
        msgs = site.on_item(Item(0, 1e9))
        assert all(m.kind == REGULAR for m in msgs)

    def test_state_words_constant(self):
        site = self._site()
        for j in range(30):
            site.on_control(Message(LEVEL_SATURATED, (j,)))
        assert site.state_words() <= 4

    def test_lazy_mode_counts_bits(self):
        cfg = SworConfig(
            num_sites=4, sample_size=2, count_bits=True,
            level_sets_enabled=False,
        )
        site = SworSite(0, cfg, np.random.default_rng(3))
        # High threshold: sends are rare, so bit counts reflect the pure
        # comparison cost Proposition 7 bounds (a send materializes the
        # key to full precision, which is fine — messages are rare).
        site.on_control(Message(EPOCH_UPDATE, (1024.0,)))
        for i in range(300):
            site.on_item(Item(i, 1.0))
        assert site.exponentials_generated == 300
        assert 0 < site.mean_bits_per_comparison < 8


class TestSworCoordinator:
    def _coordinator(self, k=4, s=2, **cfg_kwargs):
        cfg = SworConfig(num_sites=k, sample_size=s, **cfg_kwargs)
        return SworCoordinator(cfg, np.random.default_rng(11)), cfg

    def test_early_parks_in_level_set(self):
        coord, _ = self._coordinator()
        out = coord.on_message(0, Message(EARLY, (0, 5.0)))
        assert out == []
        assert coord.levels.pending_count() == 1

    def test_saturation_broadcasts_and_feeds_sampler(self):
        coord, cfg = self._coordinator()
        responses = []
        for i in range(cfg.saturation_size):
            responses = coord.on_message(0, Message(EARLY, (i, 5.0)))
        kinds = [msg.kind for _, msg in responses]
        assert LEVEL_SATURATED in kinds
        assert coord.levels.pending_count() == 0
        assert len(coord.sample_set) == cfg.sample_size

    def test_regular_below_threshold_discarded(self):
        coord, _ = self._coordinator(s=1)
        coord.on_message(0, Message(REGULAR, (0, 1.0, 100.0)))
        coord.on_message(0, Message(REGULAR, (1, 1.0, 5.0)))
        assert coord.regular_accepted == 1
        assert [i.ident for i in coord.sample()] == [0]

    def test_epoch_broadcast_on_threshold_cross(self):
        coord, _ = self._coordinator(s=1)
        out = coord.on_message(0, Message(REGULAR, (0, 1.0, 5.0)))
        kinds = [m.kind for _, m in out]
        assert EPOCH_UPDATE in kinds  # threshold jumped 0 -> 5

    def test_query_merges_pending_levels(self):
        coord, _ = self._coordinator(s=2)
        coord.on_message(0, Message(EARLY, (7, 1000.0)))
        sample_ids = {item.ident for item in coord.sample()}
        assert 7 in sample_ids  # withheld items still sampleable

    def test_early_with_levels_disabled_is_violation(self):
        coord, _ = self._coordinator(level_sets_enabled=False)
        with pytest.raises(ProtocolViolationError):
            coord.on_message(0, Message(EARLY, (0, 5.0)))

    def test_unknown_kind_is_violation(self):
        coord, _ = self._coordinator()
        with pytest.raises(ProtocolViolationError):
            coord.on_message(0, Message("bogus", ()))
