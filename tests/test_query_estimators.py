"""Tests for the Horvitz–Thompson estimator library (repro.query.estimators).

The statistical properties pinned here:

* **exact regime** — when the sample holds the whole stream, every
  estimator returns the exact answer with a zero-width interval;
* **unbiasedness** — the subset-sum/count estimators average to the
  truth over many independent key draws (the HT conditioning argument);
* **CI coverage** — the nominal 95% interval covers the true
  subset-sum in >= ~90% of seeded trials.
"""

from __future__ import annotations

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import exponential
from repro.query import estimators as est
from repro.stream.item import Item


def _swor_entries(items, s, rng):
    """Centralized weighted SWOR via precision-sampling keys — the same
    sample law the distributed protocol realizes (Proposition 1)."""
    keyed = [(item, item.weight / exponential(rng)) for item in items]
    keyed.sort(key=lambda pair: -pair[1])
    return keyed[:s]


@pytest.fixture(scope="module")
def flat_items():
    rng = random.Random(7)
    return [Item(i, 1.0 + 20.0 * rng.random()) for i in range(400)]


class TestExactRegime:
    def test_subset_sum_exact_when_sample_holds_stream(self, flat_items):
        small = flat_items[:30]
        rng = random.Random(0)
        entries = _swor_entries(small, 64, rng)  # s > n: everything sampled
        truth = sum(i.weight for i in small if i.ident % 2 == 0)
        estimate = est.subset_sum(entries, 64, lambda i: i.ident % 2 == 0)
        assert estimate.exact
        # Same addends, different summation order (sample is key-sorted).
        assert estimate.value == pytest.approx(truth, rel=1e-12)
        assert estimate.variance == 0.0
        assert estimate.ci_low == estimate.value == estimate.ci_high

    def test_count_and_quantile_exact(self, flat_items):
        small = flat_items[:20]
        entries = _swor_entries(small, 32, random.Random(1))
        count = est.subset_count(entries, 32)
        assert count.exact and count.value == len(small)
        q = est.weighted_quantile(entries, 32, 0.5)
        assert q.exact and q.ci_low == q.value == q.ci_high

    def test_uniform_count_exact(self, flat_items):
        small = flat_items[:10]
        rng = random.Random(2)
        entries = sorted(
            ((item, rng.random()) for item in small), key=lambda p: p[1]
        )
        estimate = est.count_from_uniform_sample(entries, 32)
        assert estimate.exact and estimate.value == len(small)


class TestUnbiasedness:
    TRIALS = 2000

    def test_subset_sum_unbiased(self, flat_items):
        truth = sum(i.weight for i in flat_items if i.ident % 3 == 0)
        total = 0.0
        for trial in range(self.TRIALS):
            entries = _swor_entries(flat_items, 32, random.Random(100 + trial))
            total += est.subset_sum(entries, 32, lambda i: i.ident % 3 == 0).value
        assert total / self.TRIALS == pytest.approx(truth, rel=0.03)

    def test_subset_count_unbiased(self, flat_items):
        truth = sum(1 for i in flat_items if i.ident % 3 == 0)
        total = 0.0
        for trial in range(self.TRIALS):
            entries = _swor_entries(flat_items, 32, random.Random(500 + trial))
            total += est.subset_count(entries, 32, lambda i: i.ident % 3 == 0).value
        assert total / self.TRIALS == pytest.approx(truth, rel=0.03)

    def test_uniform_count_unbiased(self, flat_items):
        truth = len(flat_items)
        total = 0.0
        for trial in range(self.TRIALS):
            rng = random.Random(900 + trial)
            entries = sorted(
                ((item, rng.random()) for item in flat_items),
                key=lambda p: p[1],
            )[:32]
            total += est.count_from_uniform_sample(entries, 32).value
        assert total / self.TRIALS == pytest.approx(truth, rel=0.03)


class TestConfidenceIntervals:
    def test_nominal_95_covers_at_least_90_percent(self, flat_items):
        """The acceptance gate: 95% CIs cover the truth >= ~90% of the
        time over seeded trials."""
        truth = sum(i.weight for i in flat_items if i.ident % 2 == 0)
        trials = 300
        covered = 0
        for trial in range(trials):
            entries = _swor_entries(flat_items, 64, random.Random(2000 + trial))
            estimate = est.subset_sum(entries, 64, lambda i: i.ident % 2 == 0)
            covered += estimate.covers(truth)
        assert covered / trials >= 0.90

    def test_interval_width_shrinks_with_sample_size(self, flat_items):
        widths = []
        for s in (16, 64, 256):
            entries = _swor_entries(flat_items, s, random.Random(42))
            widths.append(est.total_weight_estimate(entries, s).ci_width)
        assert widths[0] > widths[1] > widths[2]

    def test_estimate_helpers(self):
        e = est.Estimate(
            value=10.0, variance=4.0, ci_low=6.0, ci_high=14.0, n_used=5
        )
        assert e.std_error == 2.0
        assert e.covers(7.0) and not e.covers(5.0)
        assert e.rel_error(8.0) == pytest.approx(0.25)
        assert "[" in f"{e:.3g}"


class TestOtherEstimators:
    def test_mean_weight_ratio(self, flat_items):
        truth = sum(i.weight for i in flat_items) / len(flat_items)
        values = []
        for trial in range(300):
            entries = _swor_entries(flat_items, 64, random.Random(3000 + trial))
            values.append(est.mean_weight(entries, 64).value)
        assert sum(values) / len(values) == pytest.approx(truth, rel=0.05)

    def test_frequency_relative_in_unit_interval(self, flat_items):
        entries = _swor_entries(flat_items, 64, random.Random(5))
        heavy = max(flat_items, key=lambda i: i.weight).ident
        share = est.frequency(entries, 64, heavy, relative=True)
        assert 0.0 <= share.value <= 1.0

    def test_group_by_sums_to_total(self, flat_items):
        entries = _swor_entries(flat_items, 64, random.Random(6))
        groups = est.group_by_sum(entries, 64, lambda i: i.ident % 4)
        total = est.total_weight_estimate(entries, 64)
        assert sum(e.value for e in groups.values()) == pytest.approx(total.value)

    def test_weighted_quantile_tracks_truth(self, flat_items):
        # Weighted median of the weight values themselves.
        ranked = sorted(flat_items, key=lambda i: i.weight)
        total = sum(i.weight for i in ranked)
        acc = 0.0
        for item in ranked:
            acc += item.weight
            if acc >= 0.5 * total:
                truth = item.weight
                break
        values = []
        for trial in range(200):
            entries = _swor_entries(flat_items, 64, random.Random(4000 + trial))
            values.append(est.weighted_quantile(entries, 64, 0.5).value)
        median_of_estimates = sorted(values)[len(values) // 2]
        assert median_of_estimates == pytest.approx(truth, rel=0.15)

    def test_swr_mean_clt(self):
        rng = random.Random(8)
        sample = [Item(i, 5.0 + rng.random()) for i in range(100)]
        estimate = est.swr_mean(sample)
        assert estimate.ci_low < estimate.value < estimate.ci_high
        assert estimate.method == "clt"

    def test_swr_mean_at_in_domain_weights_past_float_squares(self):
        """Weights near 2**600 square past float range: the mean is
        returned, with a non-finite variance, instead of raising
        OverflowError (as ``subset_sum`` does at these weights)."""
        rng = random.Random(8)
        sample = [Item(i, 2.0**600 * (1.0 + rng.random())) for i in range(50)]
        estimate = est.swr_mean(sample)
        mean = sum(item.weight for item in sample) / len(sample)
        assert estimate.value == mean
        assert estimate.variance == float("inf")

    def test_validation_errors(self, flat_items):
        entries = _swor_entries(flat_items, 8, random.Random(9))
        with pytest.raises(ConfigurationError):
            est.subset_sum(entries, 0)
        with pytest.raises(ConfigurationError):
            est.weighted_quantile(entries, 8, 1.5)
        with pytest.raises(ConfigurationError):
            est.subset_sum(entries, 8, confidence=1.0)
        with pytest.raises(ConfigurationError):
            est.swr_mean([])
