"""Unit tests for repro.common.rng."""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from repro.common import (
    ConfigurationError,
    chi_square_pvalue,
    chi_square_statistic,
)
from repro.common.rng import (
    MAX_WEIGHT,
    MIN_EXPONENTIAL,
    MIN_UNIFORM,
    LazyExponential,
    RandomSource,
    exponential,
    truncated_exponential_below,
)
from repro.core import SworConfig, SworSite
from repro.core.swr import _SwrSite, floyd_sample
from repro.core.unweighted import _UnweightedSite
from repro.stream import Item


def _gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestRandomSource:
    def test_same_seed_same_substream(self):
        a = RandomSource(7).substream("site-0")
        b = RandomSource(7).substream("site-0")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_differ(self):
        src = RandomSource(7)
        a = src.substream("site-0")
        b = src.substream("site-1")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomSource(1).substream("x")
        b = RandomSource(2).substream("x")
        assert a.random() != b.random()

    def test_none_seed_is_random(self):
        assert RandomSource(None).seed != RandomSource(None).seed

    def test_generator_shares_the_substream_key(self):
        src = RandomSource(7)
        a, b = src.generator("site-0"), RandomSource(7).generator("site-0")
        assert a.bit_generator.state == b.bit_generator.state
        assert a.random() != src.generator("site-1").random()
        key = random.Random("7/site-0").getrandbits(64)
        assert src.substream("site-0").random() == random.Random(key).random()
        assert src.generator("site-0").random() == _gen(key).random()

    def test_spawn_is_reproducible_and_distinct(self):
        child1 = RandomSource(3).spawn("sub")
        child2 = RandomSource(3).spawn("sub")
        assert child1.seed == child2.seed
        assert RandomSource(3).spawn("other").seed != child1.seed


class TestExponential:
    def test_mean_close_to_one(self, rng):
        n = 20000
        mean = sum(exponential(rng) for _ in range(n)) / n
        assert abs(mean - 1.0) < 0.05

    def test_rate_scales_mean(self, rng):
        n = 20000
        mean = sum(exponential(rng, rate=4.0) for _ in range(n)) / n
        assert abs(mean - 0.25) < 0.02

    def test_positive(self, rng):
        assert all(exponential(rng) > 0 for _ in range(1000))

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            exponential(rng, rate=0.0)


class TestTruncatedExponential:
    def test_always_below_bound(self, rng):
        for _ in range(2000):
            assert truncated_exponential_below(rng.random(), 0.7) < 0.7
        assert truncated_exponential_below(0.0, 0.7) == MIN_EXPONENTIAL

    def test_distribution_matches_conditioning(self, rng):
        """Empirical CDF at the midpoint matches the conditional law."""
        bound = 2.0
        n = 40000
        draws = [truncated_exponential_below(rng.random(), bound) for _ in range(n)]
        mid = 1.0
        empirical = sum(1 for d in draws if d < mid) / n
        expected = -math.expm1(-mid) / -math.expm1(-bound)
        assert abs(empirical - expected) < 0.01

    def test_invalid_bound_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            truncated_exponential_below(0.5, 0.0)


class TestLazyExponential:
    def test_below_matches_full_precision(self):
        """Deciding via bits must agree with the materialized value."""
        for seed in range(300):
            bound = 0.1 + (seed % 17) * 0.3
            lazy = LazyExponential(_gen(seed).bit_generator.random_raw())
            decision = lazy.below(bound)
            value = lazy.value()
            assert decision == (value < bound) or abs(value - bound) < 1e-9

    def test_expected_bits_constant(self):
        """Proposition 7: O(1) expected bits per comparison."""
        total_bits = 0
        n = 3000
        for seed in range(n):
            lazy = LazyExponential(_gen(seed).bit_generator.random_raw())
            lazy.below(1.0)
            total_bits += lazy.bits_used
        assert total_bits / n < 6.0  # each bit halves undecided mass

    def test_below_nonpositive_bound(self, rng):
        assert LazyExponential(rng.getrandbits(64)).below(0.0) is False
        assert LazyExponential(rng.getrandbits(64)).below(-1.0) is False

    def test_value_positive_and_finite(self, rng):
        for _ in range(200):
            v = LazyExponential(rng.getrandbits(64)).value()
            assert math.isfinite(v) and v > 0

    def test_value_distribution_mean(self):
        n = 20000
        raw = _gen(5).bit_generator.random_raw
        mean = sum(LazyExponential(raw()).value() for _ in range(n)) / n
        assert abs(mean - 1.0) < 0.05

    def test_bits_are_the_word_most_significant_first(self):
        lazy = LazyExponential(0b101 << 61)
        assert lazy.below(-math.log(0.6)) is True  # U >= 0.625 > 0.6
        assert lazy.bits_used == 3


class TestZeroGuardPolicy:
    """One zero guard per variate kind, on the scalar and the column
    path alike: exponentials that divide a weight are clamped to
    ``MIN_EXPONENTIAL`` and uniform keys to ``MIN_UNIFORM``, so with
    weights up to ``MAX_WEIGHT`` every key is finite.  The scalar
    baselines' :func:`exponential` redraws instead."""

    def test_scalar_redraws_on_zero_uniform(self):
        class ZeroThenHalf:
            def __init__(self):
                self.calls = 0

            def random(self):
                self.calls += 1
                return 0.0 if self.calls < 3 else 0.5

        rng = ZeroThenHalf()
        t = exponential(rng)
        assert rng.calls == 3  # two redraws on u == 0
        assert t == -math.log(0.5)
        assert math.isfinite(1e300 / t)

    def test_batch_clamps_zero_draws(self):
        class Zeros:  # a ziggurat that rounds every draw to zero
            def standard_exponential(self, size=None, out=None):
                if out is not None:
                    out[:] = 0.0
                    return out
                return 0.0 if size is None else np.zeros(size)

        config = SworConfig(num_sites=2, sample_size=2, level_sets_enabled=False)
        site = SworSite(0, config, Zeros())
        weights = np.array([1.0, MAX_WEIGHT, 2.0])
        pack = site.on_columns(np.arange(3, dtype=np.int64), weights)
        assert pack.regular_keys.tolist() == (weights / MIN_EXPONENTIAL).tolist()
        assert np.isfinite(pack.regular_keys).all()
        (message,) = site.on_item(Item(7, MAX_WEIGHT))
        assert message.payload[2] == MAX_WEIGHT / MIN_EXPONENTIAL == 2.0**1023

    def test_slice_fill_equals_fresh_draw_clamp_included(self):
        """A fill of an ``out=`` slice draws what a fresh size-``n``
        draw returns, in order, and clamping the column once afterwards
        reproduces the per-draw clamp: the window pass's contract."""
        fresh, filler = _gen(8), _gen(8)
        column = np.full(1000, np.inf)
        for start, n in ((3, 240), (300, 1), (500, 417)):
            want = np.maximum(fresh.standard_exponential(n), MIN_EXPONENTIAL)
            filler.standard_exponential(out=column[start : start + n])
            np.maximum(column, MIN_EXPONENTIAL, out=column)
            assert np.array_equal(column[start : start + n], want)
        assert fresh.bit_generator.state == filler.bit_generator.state

    def test_both_paths_yield_finite_keys_for_extreme_weights(self):
        config = SworConfig(num_sites=2, sample_size=2, level_sets_enabled=False)
        weights = np.array([1e-300, 1.0, 1e6, 1e300, MAX_WEIGHT] * 400)
        column = SworSite(0, config, _gen(12))
        scalar = SworSite(0, config, _gen(12))
        keys = column.on_columns(
            np.arange(len(weights), dtype=np.int64), weights
        ).regular_keys
        assert np.isfinite(keys).all()
        per_item = [
            scalar.on_item(Item(i, w))[0].payload[2]
            for i, w in enumerate(weights.tolist())
        ]
        assert keys.tolist() == per_item

    def test_batch_uniforms_strictly_inside_unit_interval(self):
        class Zeros:
            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        site = _UnweightedSite(Zeros())
        pack = site.on_columns(np.arange(8, dtype=np.int64), np.ones(8))
        assert (pack.regular_keys == MIN_UNIFORM).all()
        (message,) = site.on_item(Item(0, 1.0))
        assert message.payload[2] == MIN_UNIFORM

    def test_binomials_bulk_matches_law(self):
        """The SWR site's aggregate coin: ``Binomial(s, alpha)`` hits
        per arrival with ``alpha = 1 - (1 - tau)^w``."""
        site = _SwrSite(8, _gen(9))
        site._threshold = 0.25
        weights = np.full(20_000, 1.0)
        hits, keys = site._draw_batch(weights)
        assert hits.min() >= 0 and hits.max() <= 8
        assert abs(float(hits.mean()) - 2.0) < 0.05
        assert ((keys > 0.0) & (keys < 0.25)).all()
        site._threshold = 1.0
        full, _ = site._draw_batch(np.ones(4))
        assert full.tolist() == [8, 8, 8, 8]


class TestOneGenerator:
    """The property every pack path relies on: a size-``n`` draw, or a
    fill of an ``out=`` slice, equals ``n`` scalar draws in order, and
    leaves the generator where the scalar draws leave it."""

    @pytest.mark.parametrize("seed", [0, 1, 2019, 2**63 + 5])
    def test_vector_draws_equal_scalar_draws(self, seed):
        vector, scalar = _gen(seed), _gen(seed)
        ps = vector.random(500)
        assert ps.tolist() == [scalar.random() for _ in range(500)]
        exps = vector.standard_exponential(500)
        assert exps.tolist() == [scalar.standard_exponential() for _ in range(500)]
        coins = vector.binomial(16, ps)
        assert coins.tolist() == [scalar.binomial(16, p) for p in ps.tolist()]
        column = np.empty(300)
        vector.standard_exponential(out=column[:1])
        vector.standard_exponential(out=column[1:])
        assert column.tolist() == [
            scalar.standard_exponential() for _ in range(300)
        ]
        vector.random(out=column[7:50])
        assert column[7:50].tolist() == [scalar.random() for _ in range(43)]
        assert vector.bit_generator.state == scalar.bit_generator.state


class TestFloydSample:
    def test_subsets_follow_the_uniform_law(self):
        """Every ``h``-subset of ``range(s)`` is equally likely."""
        s, trials = 6, 6000
        rng = _gen(31)
        for h in range(1, s + 1):
            counts = Counter(
                tuple(floyd_sample(s, rng.random(h).tolist()))
                for _ in range(trials)
            )
            subsets = list(combinations(range(s), h))
            assert set(counts) <= set(subsets)
            expected = {subset: trials / len(subsets) for subset in subsets}
            stat, df = chi_square_statistic(counts, expected)
            assert chi_square_pvalue(stat, df) > 1e-4

    def test_ascending_distinct_and_extreme_uniforms(self):
        assert floyd_sample(5, []) == []
        assert floyd_sample(5, [0.0, 0.0, 0.0]) == [0, 3, 4]
        top = 1.0 - 2.0**-53
        assert floyd_sample(5, [top, top, top]) == [2, 3, 4]
        assert floyd_sample(4, [0.9] * 4) == [0, 1, 2, 3]
