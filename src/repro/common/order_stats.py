"""Order statistics of exponential-scaled keys (Proposition 1 / Nagaraja).

Precision sampling assigns each item ``(e_i, w_i)`` the key
``v_i = w_i / t_i`` with ``t_i ~ Exp(1)``.  Proposition 1 of the paper
(citing Nagaraja 2006, eq. 11.7) states two facts this module makes
executable:

1. the items achieving the top-``s`` keys are a weighted sample without
   replacement (SWOR) — :func:`exact_swor_inclusion_probabilities`
   computes the ground-truth inclusion probabilities this implies, so
   tests can compare empirical frequencies against an oracle;
2. the ``k``-th largest key has the distributional representation
   ``v_D(k) = ( sum_{j<=k} E_j / (W - sum_{q<j} w_D(q)) )^{-1}`` with
   fresh i.i.d. exponentials ``E_j`` — :func:`sample_kth_key_nagaraja`
   draws from that representation so tests can check both routes agree.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import List, Sequence, Tuple

from ..stream.item import check_weight
from .errors import ConfigurationError
from .rng import exponential

__all__ = [
    "anti_ranks",
    "exact_swor_inclusion_probabilities",
    "exact_swor_ordered_probability",
    "sample_kth_key_nagaraja",
    "sample_top_keys_direct",
]


def anti_ranks(keys: Sequence[float]) -> List[int]:
    """Indices ``D(1), D(2), ...`` sorting keys in decreasing order.

    ``anti_ranks(v)[0]`` is the index of the largest key, matching the
    paper's ``D(1)``. Ties (measure-zero for continuous keys) break by
    index for determinism.
    """
    return sorted(range(len(keys)), key=lambda i: (-keys[i], i))


def exact_swor_inclusion_probabilities(
    weights: Sequence[float], s: int
) -> List[float]:
    """Exact per-item inclusion probabilities of a weighted SWOR of size s.

    Definition 1 of the paper: draw ``s`` times, each draw proportional
    to weight among the not-yet-drawn items.  Computed by exhaustive
    recursion over subsets, so intended for test universes
    (``n <= ~14``); complexity ``O(2^n * n)``.
    """
    n = len(weights)
    if s < 0:
        raise ConfigurationError(f"sample size must be >= 0, got {s}")
    s = min(s, n)
    for weight in weights:
        check_weight(weight)
    total = float(sum(weights))
    w = tuple(float(x) for x in weights)

    @lru_cache(maxsize=None)
    def inclusion(mask: int, remaining_draws: int) -> Tuple[float, ...]:
        """P(each item is drawn within the next ``remaining_draws``),
        given ``mask`` marks items already removed."""
        if remaining_draws == 0:
            return tuple(0.0 for _ in range(n))
        rem_total = total - sum(w[i] for i in range(n) if mask & (1 << i))
        probs = [0.0] * n
        for i in range(n):
            if mask & (1 << i):
                continue
            p_i = w[i] / rem_total
            probs[i] += p_i
            sub = inclusion(mask | (1 << i), remaining_draws - 1)
            for j in range(n):
                probs[j] += p_i * sub[j]
        return tuple(probs)

    result = list(inclusion(0, s))
    inclusion.cache_clear()
    return result


def exact_swor_ordered_probability(
    weights: Sequence[float], order: Sequence[int]
) -> float:
    """Probability that a weighted SWOR draws exactly ``order``, in order.

    This is the successive-sampling product
    ``prod_j w_{order[j]} / (W - w_{order[0]} - ... - w_{order[j-1]})``;
    used by tests to validate full ordered outcomes on tiny universes.
    """
    total = float(sum(weights))
    prob = 1.0
    for idx in order:
        check_weight(weights[idx])
        prob *= weights[idx] / total
        total -= weights[idx]
    return prob


def sample_kth_key_nagaraja(
    weights: Sequence[float],
    anti_rank_prefix: Sequence[int],
    rng: random.Random,
) -> float:
    """Draw ``v_D(k)`` from the Nagaraja representation of Proposition 1.

    Parameters
    ----------
    weights:
        All item weights.
    anti_rank_prefix:
        The realized anti-rank indices ``D(1), ..., D(k)`` to condition
        on (the representation's exponentials are independent of them).
    rng:
        Randomness source for the fresh exponentials ``E_j``.
    """
    total = float(sum(weights))
    if not anti_rank_prefix:
        raise ConfigurationError("anti_rank_prefix must name at least D(1)")
    acc = 0.0
    removed = 0.0
    for d in anti_rank_prefix:
        denom = total - removed
        if denom <= 0:
            raise ConfigurationError("anti-rank prefix removes all weight")
        acc += exponential(rng) / denom
        removed += float(weights[d])
    return 1.0 / acc


def sample_top_keys_direct(
    weights: Sequence[float], s: int, rng: random.Random
) -> Tuple[List[int], List[float]]:
    """Draw all keys ``w_i/t_i`` directly and return top-``s`` (ids, keys).

    The direct route Proposition 1 equates with the Nagaraja
    representation; used by tests and by the centralized oracle sampler.
    """
    keys = [w / exponential(rng) for w in weights]
    order = anti_ranks(keys)[: min(s, len(keys))]
    return order, [keys[i] for i in order]


def harmonic_partial(n: int) -> float:
    """``H_n = sum_{i<=n} 1/i`` with the asymptotic form for large n."""
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if n < 64:
        return sum(1.0 / i for i in range(1, n + 1))
    gamma = 0.5772156649015329
    return math.log(n) + gamma + 1.0 / (2 * n) - 1.0 / (12 * n * n)
