"""Shared utilities: randomness, order statistics, validation, accounting."""

from .errors import (
    ConfigurationError,
    DrainedStreamError,
    InvalidWeightError,
    ProtocolViolationError,
    ReproError,
)
from .rng import (
    LazyExponential,
    RandomSource,
    exponential,
    truncated_exponential_below,
)
from .order_stats import (
    anti_ranks,
    exact_swor_inclusion_probabilities,
    exact_swor_ordered_probability,
    sample_kth_key_nagaraja,
    sample_top_keys_direct,
)
from .stats import (
    chi_square_pvalue,
    chi_square_statistic,
    empirical_inclusion_frequencies,
    ks_statistic,
    relative_error,
    total_variation,
    within_relative_error,
)
from .words import word_size_bits, words_for_payload, words_for_value

__all__ = [
    "ReproError",
    "ConfigurationError",
    "InvalidWeightError",
    "ProtocolViolationError",
    "DrainedStreamError",
    "RandomSource",
    "LazyExponential",
    "exponential",
    "truncated_exponential_below",
    "anti_ranks",
    "exact_swor_inclusion_probabilities",
    "exact_swor_ordered_probability",
    "sample_kth_key_nagaraja",
    "sample_top_keys_direct",
    "chi_square_statistic",
    "chi_square_pvalue",
    "total_variation",
    "ks_statistic",
    "empirical_inclusion_frequencies",
    "relative_error",
    "within_relative_error",
    "word_size_bits",
    "words_for_value",
    "words_for_payload",
]
