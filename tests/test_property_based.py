"""Property-based tests (hypothesis) on core data structures/invariants."""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.common.order_stats import (
    anti_ranks,
    exact_swor_inclusion_probabilities,
)
from repro.common.rng import truncated_exponential_below
from repro.core import EpochTracker, TopKeySample, level_of
from repro.net import Message, MessageCounters
from repro.stream import DistributedStream, Item


weights_strategy = st.lists(
    st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)

keys_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


class TestTopKeySampleProperties:
    @given(keys=keys_strategy, s=st.integers(min_value=1, max_value=10))
    @settings(max_examples=120)
    def test_keeps_exactly_top_s(self, keys, s):
        ts = TopKeySample(s)
        for i, key in enumerate(keys):
            ts.add(Item(i, 1.0), key)
        kept = sorted((k for _, k in ts.entries()), reverse=True)
        expected = sorted(keys, reverse=True)[: min(s, len(keys))]
        assert kept == expected

    @given(keys=keys_strategy, s=st.integers(min_value=1, max_value=10))
    @settings(max_examples=60)
    def test_threshold_is_sth_largest(self, keys, s):
        ts = TopKeySample(s)
        for i, key in enumerate(keys):
            ts.add(Item(i, 1.0), key)
        if len(keys) < s:
            assert ts.threshold == 0.0
        else:
            assert ts.threshold == sorted(keys, reverse=True)[s - 1]


class TestLevelOfProperties:
    @given(
        w=st.floats(min_value=1e-9, max_value=1e18, allow_nan=False),
        r=st.floats(min_value=2.0, max_value=64.0, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_bracket_invariant(self, w, r):
        j = level_of(w, r)
        assert j >= 0
        if w < r:
            assert j == 0
        else:
            assert r**j <= w * (1 + 1e-12)
            assert w < r ** (j + 1) * (1 + 1e-12)


class TestEpochTrackerProperties:
    @given(
        us=st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=120)
    def test_monotone_thresholds_monotone_epochs(self, us):
        et = EpochTracker(2.0)
        announced = []
        for u in sorted(us):
            value = et.observe_threshold(u)
            if value is not None:
                announced.append(value)
        assert announced == sorted(announced)
        # each announced floor is a power of 2 bracketing some u
        for value in announced:
            exponent = math.log2(value)
            assert abs(exponent - round(exponent)) < 1e-9


class TestExactInclusionProperties:
    @given(weights=weights_strategy, s=st.integers(min_value=0, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_sums_and_bounds(self, weights, s):
        probs = exact_swor_inclusion_probabilities(weights, s)
        assert all(-1e-9 <= p <= 1 + 1e-9 for p in probs)
        assert math.isclose(sum(probs), min(s, len(weights)), rel_tol=1e-6)

    @given(weights=weights_strategy)
    @settings(max_examples=40, deadline=None)
    def test_heavier_items_more_likely(self, weights):
        s = min(2, len(weights))
        probs = exact_swor_inclusion_probabilities(weights, s)
        order = sorted(range(len(weights)), key=lambda i: weights[i])
        sorted_probs = [probs[i] for i in order]
        assert all(
            b >= a - 1e-9 for a, b in zip(sorted_probs, sorted_probs[1:])
        )


class TestRngProperties:
    @given(
        bound=st.floats(min_value=1e-6, max_value=50.0, allow_nan=False),
        u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=150)
    def test_truncated_exponential_below_bound(self, bound, u):
        value = truncated_exponential_below(u, bound)
        assert 0.0 < value < bound


class TestAntiRanksProperties:
    @given(keys=keys_strategy)
    @settings(max_examples=80)
    def test_is_permutation_sorting_keys(self, keys):
        order = anti_ranks(keys)
        assert sorted(order) == list(range(len(keys)))
        sorted_keys = [keys[i] for i in order]
        assert all(a >= b for a, b in zip(sorted_keys, sorted_keys[1:]))


class TestDistributedStreamProperties:
    @given(
        n=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60)
    def test_local_streams_partition_global(self, n, k, seed):
        rng = random.Random(seed)
        items = [Item(i, 1.0 + rng.random()) for i in range(n)]
        assignment = [rng.randrange(k) for _ in range(n)]
        stream = DistributedStream(items, assignment, k)
        locals_ = stream.local_streams()
        assert sum(len(local) for local in locals_) == n
        rebuilt = sorted(
            (item for local in locals_ for item in local),
            key=lambda it: it.ident,
        )
        assert rebuilt == items


class TestCountersProperties:
    @given(
        ups=st.integers(min_value=0, max_value=50),
        downs=st.integers(min_value=0, max_value=50),
        copies=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60)
    def test_totals_additive(self, ups, downs, copies):
        counters = MessageCounters()
        for _ in range(ups):
            counters.record_upstream(Message("early", (1, 1.0)))
        for _ in range(downs):
            counters.record_downstream(Message("epoch_update", (2.0,)), copies)
        assert counters.total == ups + downs * copies
        assert counters.upstream == ups
        assert counters.downstream == downs * copies
