"""Horvitz–Thompson estimators over live weighted-SWOR samples.

The coordinator's sample (:meth:`repro.core.protocol.DistributedWeightedSWOR.sample_with_keys`)
is a weighted SWOR realized through precision-sampling keys
``v_i = w_i / Exp(1)`` — equivalently a bottom-``s`` sketch with
exponentially distributed ranks ``t_i / w_i``.  Conditioning on the
``s``-th largest key ``τ`` (the classic priority-sampling/bottom-k
argument of Duffield–Lund–Thorup and Cohen–Kaplan), the remaining
``s-1`` sampled items are included independently with probability

    ``p_i = P(v_i > τ) = 1 - exp(-w_i / τ)``,

so for any per-item value ``f_i`` the Horvitz–Thompson sum
``Σ_{sampled} f_i / p_i`` is an unbiased estimate of ``Σ_stream f_i``,
with the unbiased variance estimate ``Σ f_i² (1-p_i) / p_i²``.  Every
estimator here returns an :class:`Estimate` carrying the point value
*and* that variance/confidence-interval object.

Three key regimes:

* **exact** — the sample holds the whole stream (fewer than ``s``
  distinct arrivals so far): estimates are exact, zero variance;
* **weighted** — exponential-key samples from the Theorem 3 protocol
  (also the sliding-window sampler, whose keys follow the same law);
* **uniform** — uniform-key samples from the *unweighted* baseline
  protocol, where the bottom-``s`` conditioning gives ``p_i = τ``
  (:func:`count_from_uniform_sample`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common.errors import ConfigurationError
from ..stream.item import Item

__all__ = [
    "Estimate",
    "inclusion_probability",
    "ht_pairs",
    "subset_sum",
    "total_weight_estimate",
    "subset_count",
    "mean_weight",
    "frequency",
    "group_by_sum",
    "weighted_quantile",
    "count_from_uniform_sample",
    "swr_mean",
]

#: ``(item, key)`` pairs in decreasing key order, as returned by
#: ``sample_with_keys()``.
Entries = Sequence[Tuple[Item, float]]

_NORMAL = NormalDist()


def _z(confidence: float) -> float:
    """Two-sided normal quantile for a confidence level in (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0,1), got {confidence}"
        )
    return _NORMAL.inv_cdf(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its uncertainty.

    Attributes
    ----------
    value:
        The point estimate.
    variance:
        Estimated variance of ``value`` (``None`` when the method only
        yields an interval directly, e.g. quantile rank inversion).
    ci_low / ci_high:
        Confidence interval at ``confidence``.
    confidence:
        Nominal coverage of ``(ci_low, ci_high)``.
    n_used:
        Number of sampled entries the estimate is built from.
    exact:
        True when the sample held every stream item, making the
        estimate exact (zero-width interval).
    method:
        Short tag of the estimator ("ht", "ratio", "rank-inversion",
        "clt", "exact").
    """

    value: float
    variance: Optional[float]
    ci_low: float
    ci_high: float
    confidence: float = 0.95
    n_used: int = 0
    exact: bool = False
    method: str = "ht"

    @property
    def std_error(self) -> float:
        """Standard error (0.0 when variance is unknown or exact)."""
        if not self.variance or self.variance <= 0.0:
            return 0.0
        return math.sqrt(self.variance)

    @property
    def ci_width(self) -> float:
        return self.ci_high - self.ci_low

    def covers(self, truth: float) -> bool:
        """Whether the interval contains ``truth``."""
        return self.ci_low <= truth <= self.ci_high

    def rel_error(self, truth: float) -> float:
        """``|value - truth| / |truth|`` (absolute error when truth=0)."""
        if truth == 0.0:
            return abs(self.value)
        return abs(self.value - truth) / abs(truth)

    def __format__(self, spec: str) -> str:
        spec = spec or ".4g"
        return (
            f"{self.value:{spec}} "
            f"[{self.ci_low:{spec}}, {self.ci_high:{spec}}]"
        )


def _normal_estimate(
    value: float,
    variance: float,
    confidence: float,
    n_used: int,
    method: str,
) -> Estimate:
    variance = max(0.0, variance)
    half = _z(confidence) * math.sqrt(variance)
    return Estimate(
        value=value,
        variance=variance,
        ci_low=value - half,
        ci_high=value + half,
        confidence=confidence,
        n_used=n_used,
        method=method,
    )


def _exact_estimate(value: float, confidence: float, n_used: int) -> Estimate:
    return Estimate(
        value=value,
        variance=0.0,
        ci_low=value,
        ci_high=value,
        confidence=confidence,
        n_used=n_used,
        exact=True,
        method="exact",
    )


def inclusion_probability(weight: float, tau: float) -> float:
    """``P(w/Exp(1) > τ)`` — the conditional inclusion probability."""
    if tau <= 0.0:
        return 1.0
    return max(-math.expm1(-weight / tau), 5e-324)


def ht_pairs(
    entries: Entries, sample_size: int
) -> Tuple[List[Tuple[Item, float]], bool]:
    """``(item, p_i)`` pairs usable for HT estimation, plus exactness.

    When the sample holds the whole stream (fewer than ``sample_size``
    entries), every item is included with probability 1 and estimates
    built on the pairs are exact.  Otherwise the smallest sampled key is
    the threshold ``τ``; its item is *excluded* (it is the conditioning
    variable) and each remaining item gets ``p_i = 1 - e^{-w_i/τ}``.
    """
    if sample_size <= 0:
        raise ConfigurationError(
            f"sample_size must be positive, got {sample_size}"
        )
    entries = list(entries)
    if len(entries) < sample_size:
        return [(item, 1.0) for item, _ in entries], True
    tau = entries[sample_size - 1][1]
    return [
        (item, inclusion_probability(item.weight, tau))
        for item, _ in entries[: sample_size - 1]
    ], False


def _ht_moments(
    pairs: Sequence[Tuple[Item, float]],
    f: Callable[[Item], float],
) -> Tuple[float, float, int]:
    """HT total ``Σ f_i/p_i``, its variance estimate, and #contributors."""
    total = 0.0
    var = 0.0
    used = 0
    for item, p in pairs:
        fi = f(item)
        if fi == 0.0:
            continue
        total += fi / p
        var += fi * fi * (1.0 - p) / (p * p)
        used += 1
    return total, var, used


def subset_sum(
    entries: Entries,
    sample_size: int,
    predicate: Optional[Callable[[Item], bool]] = None,
    confidence: float = 0.95,
) -> Estimate:
    """Estimate ``Σ w_i`` over stream items satisfying ``predicate``.

    Unbiased (Horvitz–Thompson with conditional inclusion
    probabilities); ``predicate=None`` estimates the stream's total
    weight ``W``.
    """
    pairs, exact = ht_pairs(entries, sample_size)
    f = (
        (lambda item: item.weight)
        if predicate is None
        else (lambda item: item.weight if predicate(item) else 0.0)
    )
    total, var, used = _ht_moments(pairs, f)
    if exact:
        return _exact_estimate(total, confidence, used)
    return _normal_estimate(total, var, confidence, used, "ht")


def total_weight_estimate(
    entries: Entries, sample_size: int, confidence: float = 0.95
) -> Estimate:
    """Estimate the stream's total weight ``W`` from the sample alone."""
    return subset_sum(entries, sample_size, None, confidence)


def subset_count(
    entries: Entries,
    sample_size: int,
    predicate: Optional[Callable[[Item], bool]] = None,
    confidence: float = 0.95,
) -> Estimate:
    """Estimate the *number* of stream items satisfying ``predicate``."""
    pairs, exact = ht_pairs(entries, sample_size)
    f = (
        (lambda item: 1.0)
        if predicate is None
        else (lambda item: 1.0 if predicate(item) else 0.0)
    )
    total, var, used = _ht_moments(pairs, f)
    if exact:
        return _exact_estimate(total, confidence, used)
    return _normal_estimate(total, var, confidence, used, "ht")


def _ratio_estimate(
    pairs: Sequence[Tuple[Item, float]],
    exact: bool,
    num: Callable[[Item], float],
    den: Callable[[Item], float],
    confidence: float,
    if_empty: float = 0.0,
) -> Estimate:
    """Delta-method ratio ``Σnum/p / Σden/p`` with covariance terms."""
    y = n = var_y = var_n = cov = 0.0
    used = 0
    for item, p in pairs:
        fi, gi = num(item), den(item)
        if fi == 0.0 and gi == 0.0:
            continue
        q = (1.0 - p) / (p * p)
        y += fi / p
        n += gi / p
        var_y += fi * fi * q
        var_n += gi * gi * q
        cov += fi * gi * q
        used += 1
    if n == 0.0:
        return _exact_estimate(if_empty, confidence, 0) if exact else Estimate(
            value=if_empty,
            variance=None,
            ci_low=if_empty,
            ci_high=if_empty,
            confidence=confidence,
            n_used=0,
            method="ratio",
        )
    ratio = y / n
    if exact:
        return _exact_estimate(ratio, confidence, used)
    var = (var_y - 2.0 * ratio * cov + ratio * ratio * var_n) / (n * n)
    return _normal_estimate(ratio, var, confidence, used, "ratio")


def mean_weight(
    entries: Entries,
    sample_size: int,
    predicate: Optional[Callable[[Item], bool]] = None,
    confidence: float = 0.95,
) -> Estimate:
    """Estimate the mean weight of items satisfying ``predicate``.

    Ratio of two HT estimates (sum / count) with a delta-method
    variance — consistent, asymptotically unbiased.
    """
    pairs, exact = ht_pairs(entries, sample_size)
    match = (lambda item: True) if predicate is None else predicate
    return _ratio_estimate(
        pairs,
        exact,
        lambda item: item.weight if match(item) else 0.0,
        lambda item: 1.0 if match(item) else 0.0,
        confidence,
    )


def frequency(
    entries: Entries,
    sample_size: int,
    ident: int,
    relative: bool = False,
    confidence: float = 0.95,
) -> Estimate:
    """Estimate the total weight carried by identifier ``ident``.

    ``relative=True`` instead estimates its *share* of the stream's
    total weight (a ratio estimate in [0, 1] — the weighted frequency).
    """
    if not relative:
        return subset_sum(
            entries, sample_size, lambda item: item.ident == ident, confidence
        )
    pairs, exact = ht_pairs(entries, sample_size)
    return _ratio_estimate(
        pairs,
        exact,
        lambda item: item.weight if item.ident == ident else 0.0,
        lambda item: item.weight,
        confidence,
    )


def group_by_sum(
    entries: Entries,
    sample_size: int,
    key: Callable[[Item], object],
    confidence: float = 0.95,
) -> Dict[object, Estimate]:
    """Per-group subset-sum estimates in one pass over the sample.

    Groups absent from the sample are absent from the result (their
    estimate is implicitly 0, with no variance information).
    """
    pairs, exact = ht_pairs(entries, sample_size)
    totals: Dict[object, float] = {}
    variances: Dict[object, float] = {}
    counts: Dict[object, int] = {}
    for item, p in pairs:
        g = key(item)
        totals[g] = totals.get(g, 0.0) + item.weight / p
        variances[g] = (
            variances.get(g, 0.0)
            + item.weight * item.weight * (1.0 - p) / (p * p)
        )
        counts[g] = counts.get(g, 0) + 1
    if exact:
        return {
            g: _exact_estimate(totals[g], confidence, counts[g])
            for g in totals
        }
    return {
        g: _normal_estimate(totals[g], variances[g], confidence, counts[g], "ht")
        for g in totals
    }


def weighted_quantile(
    entries: Entries,
    sample_size: int,
    q: float,
    value: Optional[Callable[[Item], float]] = None,
    confidence: float = 0.95,
) -> Estimate:
    """Estimate the ``q``-quantile of the weight distribution over
    ``value(item)`` (default: the item's weight itself).

    The sampled items, reweighted by ``1/p_i``, approximate the stream's
    weight measure; the point estimate inverts the weighted empirical
    CDF at ``q``.  The interval inverts it at ``q ± z·sqrt(q(1-q)/n_eff)``
    (rank inversion with the Kish effective sample size), which is
    distribution-free but approximate.
    """
    if not 0.0 < q < 1.0:
        raise ConfigurationError(f"quantile q must be in (0,1), got {q}")
    pairs, exact = ht_pairs(entries, sample_size)
    if not pairs:
        raise ConfigurationError("cannot estimate a quantile from an empty sample")
    val = value if value is not None else (lambda item: item.weight)
    ranked = sorted(
        ((val(item), item.weight / p) for item, p in pairs),
        key=lambda t: t[0],
    )
    total = sum(a for _, a in ranked)
    sum_sq = sum(a * a for _, a in ranked)
    n_eff = (total * total / sum_sq) if sum_sq > 0.0 else 1.0

    def invert(rank: float) -> float:
        target = min(max(rank, 0.0), 1.0) * total
        acc = 0.0
        for v, a in ranked:
            acc += a
            if acc >= target:
                return v
        return ranked[-1][0]

    point = invert(q)
    if exact:
        return _exact_estimate(point, confidence, len(ranked))
    spread = _z(confidence) * math.sqrt(q * (1.0 - q) / max(n_eff, 1.0))
    return Estimate(
        value=point,
        variance=None,
        ci_low=invert(q - spread),
        ci_high=invert(q + spread),
        confidence=confidence,
        n_used=len(ranked),
        method="rank-inversion",
    )


def count_from_uniform_sample(
    entries: Entries,
    sample_size: int,
    predicate: Optional[Callable[[Item], bool]] = None,
    confidence: float = 0.95,
) -> Estimate:
    """Item-count estimate from a *uniform-key* (unweighted SWOR) sample.

    ``entries`` are ``(item, key)`` pairs in **increasing** key order as
    produced by the unweighted baseline protocol (bottom-``s`` uniform
    keys).  Conditioned on the ``s``-th smallest key ``τ``, the other
    ``s-1`` sampled items are included independently with ``p_i = τ``,
    so ``Σ 1/τ`` over matching items estimates the stream count —
    the classic ``(s-1)/τ`` distinct-sampling estimator when
    ``predicate`` is ``None``.
    """
    if sample_size <= 0:
        raise ConfigurationError(
            f"sample_size must be positive, got {sample_size}"
        )
    entries = list(entries)
    if len(entries) < sample_size:
        n = sum(
            1 for item, _ in entries if predicate is None or predicate(item)
        )
        return _exact_estimate(float(n), confidence, n)
    tau = entries[sample_size - 1][1]
    matches = sum(
        1
        for item, _ in entries[: sample_size - 1]
        if predicate is None or predicate(item)
    )
    total = matches / tau
    var = matches * (1.0 - tau) / (tau * tau)
    return _normal_estimate(total, var, confidence, matches, "ht")


def swr_mean(
    sample: Sequence[Item],
    value: Optional[Callable[[Item], float]] = None,
    confidence: float = 0.95,
) -> Estimate:
    """Weight-distribution mean of ``value`` from an SWR sample.

    Each slot of a weighted SWR sample is an independent draw of the
    weight distribution, so the plain sample mean of ``value(item)`` is
    unbiased for ``Σ w_i·value_i / W``, with a CLT interval.
    """
    if not sample:
        raise ConfigurationError("cannot estimate a mean from an empty sample")
    val = value if value is not None else (lambda item: item.weight)
    xs = [val(item) for item in sample]
    n = len(xs)
    mean = sum(xs) / n
    if n == 1:
        return Estimate(
            value=mean,
            variance=None,
            ci_low=mean,
            ci_high=mean,
            confidence=confidence,
            n_used=1,
            method="clt",
        )
    # Square by multiplication: ``** 2`` raises OverflowError past
    # float range, where a product is inf (as in ``_ht_moments``).
    var = sum((x - mean) * (x - mean) for x in xs) / (n - 1) / n
    return _normal_estimate(mean, var, confidence, n, "clt")
