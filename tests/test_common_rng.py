"""Unit tests for repro.common.rng."""

from __future__ import annotations

import math
import random

import pytest

from repro.common import ConfigurationError
from repro.common.rng import (
    LazyExponential,
    RandomSource,
    binomial,
    exponential,
    key_stream,
    min_uniform_key_for_weight,
    truncated_exponential_below,
)


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
            assert truncated_exponential_below(rng, 0.7) < 0.7

    def test_distribution_matches_conditioning(self, rng):
        """Empirical CDF at the midpoint matches the conditional law."""
        bound = 2.0
        n = 40000
        draws = [truncated_exponential_below(rng, bound) for _ in range(n)]
        mid = 1.0
        empirical = sum(1 for d in draws if d < mid) / n
        expected = -math.expm1(-mid) / -math.expm1(-bound)
        assert abs(empirical - expected) < 0.01

    def test_invalid_bound_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            truncated_exponential_below(rng, 0.0)


class TestMinUniformKey:
    def test_in_unit_interval(self, rng):
        for w in (1.0, 2.5, 100.0):
            for _ in range(500):
                key = min_uniform_key_for_weight(rng, w)
                assert 0.0 <= key < 1.0

    def test_tail_matches_weight(self, rng):
        """P(key > x) should be (1-x)^w."""
        w, x, n = 3.0, 0.2, 40000
        draws = [min_uniform_key_for_weight(rng, w) for _ in range(n)]
        tail = sum(1 for d in draws if d > x) / n
        assert abs(tail - (1 - x) ** w) < 0.01

    def test_weight_one_is_uniform(self, rng):
        n = 40000
        draws = [min_uniform_key_for_weight(rng, 1.0) for _ in range(n)]
        mean = sum(draws) / n
        assert abs(mean - 0.5) < 0.01

    def test_invalid_weight_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            min_uniform_key_for_weight(rng, 0.0)


class TestBinomial:
    def test_edge_cases(self, rng):
        assert binomial(rng, 0, 0.5) == 0
        assert binomial(rng, 10, 0.0) == 0
        assert binomial(rng, 10, 1.0) == 10

    def test_invalid_args_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            binomial(rng, -1, 0.5)
        with pytest.raises(ConfigurationError):
            binomial(rng, 5, 1.5)

    @pytest.mark.parametrize("n,p", [(20, 0.3), (500, 0.01), (500, 0.9), (5000, 0.001)])
    def test_mean_and_variance(self, rng, n, p):
        trials = 4000
        draws = [binomial(rng, n, p) for _ in range(trials)]
        mean = sum(draws) / trials
        var = sum((d - mean) ** 2 for d in draws) / (trials - 1)
        exp_mean, exp_var = n * p, n * p * (1 - p)
        assert abs(mean - exp_mean) < 5 * math.sqrt(exp_var / trials) + 0.05
        assert abs(var - exp_var) < 0.35 * exp_var + 0.1

    def test_range(self, rng):
        assert all(0 <= binomial(rng, 100, 0.4) <= 100 for _ in range(500))


class TestLazyExponential:
    def test_below_matches_full_precision(self):
        """Deciding via bits must agree with the materialized value."""
        for seed in range(300):
            bound = 0.1 + (seed % 17) * 0.3
            lazy = LazyExponential(random.Random(seed))
            decision = lazy.below(bound)
            value = lazy.value()
            assert decision == (value < bound) or abs(value - bound) < 1e-9

    def test_expected_bits_constant(self):
        """Proposition 7: O(1) expected bits per comparison."""
        total_bits = 0
        n = 3000
        for seed in range(n):
            lazy = LazyExponential(random.Random(seed))
            lazy.below(1.0)
            total_bits += lazy.bits_used
        assert total_bits / n < 6.0  # each bit halves undecided mass

    def test_below_nonpositive_bound(self, rng):
        assert LazyExponential(rng).below(0.0) is False
        assert LazyExponential(rng).below(-1.0) is False

    def test_value_positive_and_finite(self, rng):
        for _ in range(200):
            v = LazyExponential(rng).value()
            assert math.isfinite(v) and v > 0

    def test_value_distribution_mean(self):
        n = 20000
        rng = random.Random(5)
        mean = sum(LazyExponential(rng).value() for _ in range(n)) / n
        assert abs(mean - 1.0) < 0.05


def test_key_stream_yields_positive_keys(rng):
    keys = list(key_stream(rng, [1.0, 5.0, 2.5]))
    assert len(keys) == 3
    assert all(k > 0 for k in keys)


class TestZeroGuardPolicy:
    """The two exponential zero-guard policies (scalar redraw vs batch
    clamp) both pin ``w/t`` keys finite — the regression the unified
    policy documentation promises (see ``MIN_EXPONENTIAL``)."""

    def test_scalar_redraws_on_zero_uniform(self):
        from repro.common.rng import exponential

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
        np = pytest.importorskip("numpy")
        from repro.common.rng import MIN_EXPONENTIAL, BatchRandom

        batch = BatchRandom(random.Random(3))

        class Zeros:
            def standard_exponential(self, n):
                return np.zeros(n)

        batch._gen = Zeros()
        draws = batch.exponentials(16)
        assert (draws == MIN_EXPONENTIAL).all()
        keys = 1e6 / draws  # the largest generator weight
        assert np.isfinite(keys).all() and (keys > 0).all()

    def test_slice_fill_equals_fresh_draw_clamp_included(self):
        """``exponentials(n, out=slice)`` fills a caller's column with
        the draws a fresh call returns, in order; clamping the column
        once afterwards reproduces the fresh call's zero guard."""
        np = pytest.importorskip("numpy")
        from repro.common.rng import MIN_EXPONENTIAL, BatchRandom

        fresh = BatchRandom(random.Random(8))
        filler = BatchRandom(random.Random(8))
        column = np.full(1000, np.inf)
        for start, n in ((3, 240), (300, 2), (500, 417)):
            want = fresh.exponentials(n)
            filler.exponentials(n, out=column[start : start + n])
            np.maximum(column, MIN_EXPONENTIAL, out=column)
            assert np.array_equal(column[start : start + n], want)
        assert fresh.snapshot() == filler.snapshot()

        pattern = np.array([0.0, 0.5, 0.0, 2.0])

        class Pattern:  # a ziggurat that rounds two draws to zero
            def standard_exponential(self, size=None, out=None):
                if out is None:
                    return pattern[:size].copy()
                out[:] = pattern[: len(out)]
                return out

        fresh._gen = Pattern()
        filler._gen = Pattern()
        column = np.full(6, np.inf)
        filler.exponentials(4, out=column[1:5])
        np.maximum(column, MIN_EXPONENTIAL, out=column)
        want = fresh.exponentials(4)
        assert want.tolist() == [MIN_EXPONENTIAL, 0.5, MIN_EXPONENTIAL, 2.0]
        assert np.array_equal(column[1:5], want)

    def test_both_paths_yield_finite_keys_for_extreme_weights(self):
        np = pytest.importorskip("numpy")
        from repro.common.rng import BatchRandom

        rng = random.Random(11)
        weights = [1e-300, 1.0, 1e6, 1e300]
        for w in weights:
            for _ in range(200):
                assert math.isfinite(w / exponential(rng))
        draws = BatchRandom(random.Random(12)).exponentials(5000)
        for w in weights:
            assert np.isfinite(w / draws).all()

    def test_batch_uniforms_strictly_inside_unit_interval(self):
        np = pytest.importorskip("numpy")
        from repro.common.rng import MIN_UNIFORM, BatchRandom

        batch = BatchRandom(random.Random(5))

        class Zeros:
            def random(self, n):
                return np.zeros(n)

        batch._gen = Zeros()
        assert (batch.uniforms(8) == MIN_UNIFORM).all()

    def test_binomials_bulk_matches_law(self):
        np = pytest.importorskip("numpy")
        from repro.common.rng import BatchRandom

        batch = BatchRandom(random.Random(9))
        ps = np.full(20_000, 0.25)
        draws = np.asarray(batch.binomials(8, ps))
        assert draws.min() >= 0 and draws.max() <= 8
        assert abs(float(draws.mean()) - 2.0) < 0.05
        edges = batch.binomials(8, np.array([0.0, 1.0]))
        assert edges.tolist() == [0, 8]
        with pytest.raises(ConfigurationError):
            batch.binomials(-1, np.array([0.5]))
