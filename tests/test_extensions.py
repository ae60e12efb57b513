"""Tests for repro.extensions: sliding-window SWOR and cascade sampling."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import (
    ConfigurationError,
    InvalidWeightError,
    chi_square_pvalue,
    chi_square_statistic,
    exact_swor_inclusion_probabilities,
    exponential,
)
from repro.extensions import CascadeWeightedSWOR, SlidingWindowWeightedSWOR
from repro.stream import Item


class TestSlidingWindowSWOR:
    def test_whole_stream_sample_law(self):
        weights = [1.0, 3.0, 6.0, 2.0, 8.0]
        s, trials = 2, 6000
        counts = Counter()
        for t in range(trials):
            sw = SlidingWindowWeightedSWOR(s, random.Random(t))
            for i, w in enumerate(weights):
                sw.insert(Item(i, w))
            for item in sw.sample():
                counts[item.ident] += 1
        exact = exact_swor_inclusion_probabilities(weights, s)
        expected = {i: trials * p for i, p in enumerate(exact)}
        stat, df = chi_square_statistic(counts, expected)
        assert chi_square_pvalue(stat, df) > 1e-4

    def test_window_sample_law_excludes_old_giant(self):
        """A giant outside the window must never appear; within-window
        items follow the window's own SWOR law."""
        weights = [1e9, 1.0, 5.0, 2.0, 8.0, 4.0]
        s, window, trials = 2, 4, 6000
        counts = Counter()
        for t in range(trials):
            sw = SlidingWindowWeightedSWOR(s, random.Random(t + 10**6))
            for i, w in enumerate(weights):
                sw.insert(Item(i, w))
            for item in sw.sample(window=window):
                counts[item.ident] += 1
        assert counts[0] == 0  # giant fell out of the window
        exact = exact_swor_inclusion_probabilities(weights[2:], s)
        expected = {i + 2: trials * p for i, p in enumerate(exact)}
        stat, df = chi_square_statistic(counts, expected)
        assert chi_square_pvalue(stat, df) > 1e-4

    def test_sample_size_clamped_to_window(self):
        sw = SlidingWindowWeightedSWOR(5, random.Random(1))
        for i in range(3):
            sw.insert(Item(i, 2.0))
        assert len(sw.sample(window=2)) == 2

    def test_space_is_logarithmic(self):
        """Retained candidates ~ s·ln(n/s), far below n."""
        s, n = 8, 20000
        sw = SlidingWindowWeightedSWOR(s, random.Random(3))
        rng = random.Random(4)
        for i in range(n):
            sw.insert(Item(i, rng.uniform(1.0, 5.0)))
        expected = s * math.log(n / s)
        assert sw.retained_count() < 6 * expected
        assert sw.retained_count() < n / 10

    def test_horizon_discards_old(self):
        sw = SlidingWindowWeightedSWOR(2, random.Random(5), horizon=10)
        for i in range(100):
            sw.insert(Item(i, 1.0))
        assert all(e.index >= 90 for e in sw._entries)

    def test_window_validation(self):
        sw = SlidingWindowWeightedSWOR(2, random.Random(6), horizon=10)
        sw.insert(Item(0, 1.0))
        with pytest.raises(ConfigurationError):
            sw.sample(window=0)
        with pytest.raises(ConfigurationError):
            sw.sample(window=20)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowWeightedSWOR(0, random.Random(7))
        with pytest.raises(ConfigurationError):
            SlidingWindowWeightedSWOR(2, random.Random(7), horizon=0)

    def test_invalid_weight(self):
        sw = SlidingWindowWeightedSWOR(2, random.Random(8))
        with pytest.raises(InvalidWeightError):
            sw.insert(Item(0, -1.0))

    def test_keys_decreasing_in_sample(self):
        sw = SlidingWindowWeightedSWOR(4, random.Random(9))
        for i in range(50):
            sw.insert(Item(i, 1.0 + i % 3))
        keys = [k for _, k in sw.sample_with_keys()]
        assert keys == sorted(keys, reverse=True)

    def test_window_beyond_items_seen_is_whole_stream(self):
        """The documented contract: windows are validated against the
        retention guarantee (the horizon), never the arrival count —
        an over-long window just covers everything retained, in both
        horizon modes."""
        unbounded = SlidingWindowWeightedSWOR(2, random.Random(10))
        bounded = SlidingWindowWeightedSWOR(2, random.Random(10), horizon=50)
        for sw in (unbounded, bounded):
            for i in range(5):
                sw.insert(Item(i, 2.0))
        assert unbounded.sample_with_keys(40) == unbounded.sample_with_keys()
        assert bounded.sample_with_keys(40) == bounded.sample_with_keys()
        # ... while beyond-horizon windows raise, with or without data.
        with pytest.raises(ConfigurationError):
            bounded.sample(window=51)


class TestSlidingWindowColumnar:
    """The columnar insert path and its bit-parity contract."""

    np = pytest.importorskip("numpy")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        s=st.integers(min_value=1, max_value=8),
        horizon=st.one_of(st.none(), st.integers(min_value=1, max_value=120)),
        weights=st.lists(
            st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=300,
        ),
        data=st.data(),
    )
    def test_chunked_insert_bit_identical_to_per_item(
        self, seed, s, horizon, weights, data
    ):
        """Any chunking of insert_columns — including chunk size 1 —
        equals per-item insertion bit for bit (entries, dominator
        counts, samples), because both consume the same scalar draws."""
        np = self.np
        n = len(weights)
        per_item = SlidingWindowWeightedSWOR(
            s, random.Random(seed), horizon=horizon
        )
        for i, w in enumerate(weights):
            per_item.insert(Item(i, w))
        chunked = SlidingWindowWeightedSWOR(
            s, random.Random(seed), horizon=horizon
        )
        lo = 0
        while lo < n:
            size = data.draw(st.integers(min_value=1, max_value=n - lo))
            chunked.insert_columns(
                np.arange(lo, lo + size),
                np.asarray(weights[lo:lo + size]),
            )
            lo += size
        assert [
            (e.index, e.item, e.key, e.dominators, e.timestamp)
            for e in per_item._entries
        ] == [
            (e.index, e.item, e.key, e.dominators, e.timestamp)
            for e in chunked._entries
        ]
        window = data.draw(
            st.integers(min_value=1, max_value=horizon or (2 * n))
        )
        assert per_item.sample_with_keys(window) == chunked.sample_with_keys(
            window
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        s=st.integers(min_value=1, max_value=6),
        horizon=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
        n=st.integers(min_value=1, max_value=250),
        data=st.data(),
    )
    def test_dominance_invariant_vs_brute_force(self, seed, s, horizon, n, data):
        """``sample(window)`` equals the exact top-``s`` keys of a
        brute-force window replay, across random horizons, evictions,
        window sizes, and the columnar insert path.  The sampler draws
        one exponential per arrival in arrival order, so an
        independent replay of the same ``random.Random`` recovers every
        key — including those of evicted entries."""
        np = self.np
        rng_w = random.Random(seed + 1)
        weights = [rng_w.uniform(0.1, 100.0) for _ in range(n)]
        sw = SlidingWindowWeightedSWOR(s, random.Random(seed), horizon=horizon)
        lo = 0
        while lo < n:
            size = data.draw(st.integers(min_value=1, max_value=n - lo))
            if data.draw(st.booleans()):
                sw.insert_columns(
                    np.arange(lo, lo + size), np.asarray(weights[lo:lo + size])
                )
            else:
                for i in range(lo, lo + size):
                    sw.insert(Item(i, weights[i]))
            lo += size
        replay = random.Random(seed)
        all_keys = [w / exponential(replay) for w in weights]
        max_window = horizon if horizon is not None else 2 * n
        window = data.draw(st.integers(min_value=1, max_value=max_window))
        cutoff = n - window
        brute = sorted(
            ((i, all_keys[i]) for i in range(max(0, cutoff), n)),
            key=lambda pair: -pair[1],
        )[:s]
        got = sw.sample_with_keys(window)
        assert [(item.ident, key) for item, key in got] == brute

    def test_batch_size_one_column_equals_insert(self):
        np = self.np
        a = SlidingWindowWeightedSWOR(3, random.Random(5))
        b = SlidingWindowWeightedSWOR(3, random.Random(5))
        for i in range(40):
            a.insert(Item(i, float(i % 7 + 1)))
            b.insert_columns(np.array([i]), np.array([float(i % 7 + 1)]))
        assert a.sample_with_keys() == b.sample_with_keys()
        assert a.retained_count() == b.retained_count()

    def test_invalid_weight_fails_fast_without_partial_insert(self):
        np = self.np
        sw = SlidingWindowWeightedSWOR(2, random.Random(6))
        with pytest.raises(InvalidWeightError):
            sw.insert_columns(np.arange(3), np.array([1.0, -2.0, 3.0]))
        assert sw.items_seen == 0 and sw.retained_count() == 0

    def test_timestamps_default_to_arrival_index(self):
        np = self.np
        sw = SlidingWindowWeightedSWOR(4, random.Random(7))
        sw.insert_columns(np.arange(10), np.ones(10))
        sw.insert(Item(10, 1.0))
        assert all(e.timestamp == float(e.index) for e in sw._entries)

    def test_timestamps_must_be_nondecreasing(self):
        np = self.np
        sw = SlidingWindowWeightedSWOR(2, random.Random(8))
        sw.insert(Item(0, 1.0), timestamp=100.0)
        with pytest.raises(ConfigurationError):
            sw.insert(Item(1, 1.0), timestamp=99.0)
        with pytest.raises(ConfigurationError):
            sw.insert_columns(
                np.arange(2), np.ones(2), np.array([200.0, 150.0])
            )
        with pytest.raises(ConfigurationError):
            sw.insert_columns(np.arange(2), np.ones(2), np.array([50.0, 60.0]))
        # The index default after a large explicit timestamp also trips.
        with pytest.raises(ConfigurationError):
            sw.insert_columns(np.arange(2), np.ones(2))

    def test_sample_since_exact_on_unbounded_horizon(self):
        np = self.np
        sw = SlidingWindowWeightedSWOR(3, random.Random(9))
        sw.insert_columns(
            np.arange(200),
            np.ones(200),
            np.arange(200, dtype=np.float64) * 2.0,
        )
        # Timestamp suffix ts >= 2*150 is exactly the last-50 window.
        assert sw.sample_since(300.0) == sw.sample_with_keys(50)
        bounded = SlidingWindowWeightedSWOR(3, random.Random(9), horizon=50)
        bounded.insert(Item(0, 1.0))
        with pytest.raises(ConfigurationError):
            bounded.sample_since(0.0)


class TestCascadeSWOR:
    def test_matches_exact_law(self):
        """Cascade sampling and exponential keys implement the same
        Definition 1 law — two structurally different algorithms."""
        weights = [1.0, 3.0, 6.0, 2.0, 8.0]
        s, trials = 2, 8000
        counts = Counter()
        for t in range(trials):
            cascade = CascadeWeightedSWOR(s, random.Random(t))
            for i, w in enumerate(weights):
                cascade.insert(Item(i, w))
            for item in cascade.sample():
                counts[item.ident] += 1
        exact = exact_swor_inclusion_probabilities(weights, s)
        expected = {i: trials * p for i, p in enumerate(exact)}
        stat, df = chi_square_statistic(counts, expected)
        assert chi_square_pvalue(stat, df) > 1e-4

    def test_first_level_is_single_weighted_sample(self):
        weights = [1.0, 2.0, 7.0]
        trials = 8000
        counts = Counter()
        for t in range(trials):
            cascade = CascadeWeightedSWOR(1, random.Random(t + 5))
            for i, w in enumerate(weights):
                cascade.insert(Item(i, w))
            counts[cascade.sample()[0].ident] += 1
        for i, w in enumerate(weights):
            assert abs(counts[i] / trials - w / 10.0) < 0.02

    def test_underfull_prefix(self):
        cascade = CascadeWeightedSWOR(5, random.Random(1))
        cascade.insert(Item(0, 1.0))
        cascade.insert(Item(1, 1.0))
        assert len(cascade) == 2
        sample_ids = {item.ident for item in cascade.sample()}
        assert sample_ids == {0, 1}

    def test_sample_is_distinct(self):
        cascade = CascadeWeightedSWOR(4, random.Random(2))
        for i in range(100):
            cascade.insert(Item(i, 1.0 + i % 5))
        idents = [item.ident for item in cascade.sample()]
        assert len(idents) == len(set(idents)) == 4

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            CascadeWeightedSWOR(0, random.Random(3))
        with pytest.raises(InvalidWeightError):
            CascadeWeightedSWOR(2, random.Random(3)).insert(Item(0, 0.0))

    def test_agrees_with_sliding_window_on_full_stream(self):
        """Three-way cross-validation: cascade vs sliding-window (full
        window) on identical inputs, compared via TV distance."""
        weights = [2.0, 5.0, 1.0, 4.0]
        s, trials = 2, 6000
        c1, c2 = Counter(), Counter()
        for t in range(trials):
            a = CascadeWeightedSWOR(s, random.Random(t))
            b = SlidingWindowWeightedSWOR(s, random.Random(t + 7777))
            for i, w in enumerate(weights):
                a.insert(Item(i, w))
                b.insert(Item(i, w))
            for item in a.sample():
                c1[item.ident] += 1
            for item in b.sample():
                c2[item.ident] += 1
        tv = 0.5 * sum(
            abs(c1.get(i, 0) - c2.get(i, 0)) / (trials * s) for i in range(4)
        )
        assert tv < 0.03
