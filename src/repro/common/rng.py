"""Random-number utilities used throughout the reproduction.

The paper's algorithms are driven by three random primitives:

* i.i.d. rate-1 exponential variables ``t`` used to form precision-
  sampling keys ``v = w / t`` (Section 3, Proposition 1);
* uniform keys used by the unweighted baselines of [11, 14];
* Binomial draws used by the duplication shortcuts (Corollary 1 and the
  L1 tracker of Section 5), which replace literal ``w``-fold duplication
  with a single aggregate coin.

Proposition 7 of the paper argues each exponential needs only ``O(1)``
*expected* bits to resolve a threshold comparison. :class:`LazyExponential`
implements exactly that bit-by-bit generation so the resource benchmarks
(experiment E12) can measure bits consumed per comparison.

One generator per actor.  Every actor an engine runs (a protocol's
sites and coordinator, the sliding-window sampler) draws its scalars
and its columns from one numpy ``Generator`` over PCG64 (O'Neill,
HMC-CS-2014-0905), built by :meth:`RandomSource.generator`.  A size-``n``
draw, or a fill of an ``out=`` slice, equals ``n`` scalar draws in order
(``standard_exponential``, ``random``, ``binomial``), so a scalar path
and a column path over the same arrivals draw the same variates, and
the generator's whole state is four 64-bit words
(``bit_generator.state``), which is what a site snapshot carries.
Scalar-only baselines and stream generators keep one
:class:`random.Random` each (:meth:`RandomSource.substream`).
"""

from __future__ import annotations

import math
import random
from typing import Optional

import numpy as _np

from .errors import ConfigurationError

__all__ = [
    "MAX_WEIGHT",
    "MIN_EXPONENTIAL",
    "MIN_UNIFORM",
    "RandomSource",
    "LazyExponential",
    "exponential",
    "truncated_exponential_below",
]


class RandomSource:
    """A seedable root of independent random sub-streams.

    Each distributed actor (site, coordinator) and each independent
    sampler copy gets its own generator derived from a root seed and a
    string label, so simulations are reproducible regardless of the
    interleaving chosen by the driver.

    Parameters
    ----------
    seed:
        Root seed. ``None`` derives a nondeterministic seed.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = random.Random(seed).getrandbits(64) if seed is None else int(seed)

    @property
    def seed(self) -> int:
        """The root seed this source derives all sub-streams from."""
        return self._seed

    def _key(self, label: str) -> int:
        """The 64-bit hash of ``(root seed, label)`` that seeds a
        sub-stream."""
        return random.Random(f"{self._seed}/{label}").getrandbits(64)

    def substream(self, label: str) -> random.Random:
        """Return an independent, reproducible :class:`random.Random`
        (for scalar-only baselines).

        The sub-stream is keyed by ``(root seed, label)``; the same pair
        always yields an identically-seeded generator.
        """
        return random.Random(self._key(label))

    def generator(self, label: str) -> _np.random.Generator:
        """Return an actor's one numpy ``Generator`` (PCG64), seeded
        with the same ``(root seed, label)`` hash as
        :meth:`substream`."""
        return _np.random.Generator(_np.random.PCG64(self._key(label)))

    def spawn(self, label: str) -> "RandomSource":
        """Derive a child :class:`RandomSource` (for nested protocols)."""
        return RandomSource(random.Random(f"{self._seed}//{label}").getrandbits(64))


#: The floor of every exponential that divides a weight — the SWOR site
#: and coordinator keys, both L1 paths (truncated draws included) and
#: the sliding-window keys: a draw below it (numpy's ziggurat can
#: return exactly 0.0) is clamped to it, on the scalar and the column
#: path alike.  With :data:`MAX_WEIGHT` it bounds every key ``w/t`` by
#: ``2**1023``, below the largest double.
MIN_EXPONENTIAL = 2.0**-64

#: The largest weight any engine accepts (ingest raises
#: :class:`~repro.common.errors.ConfigurationError` above it): the
#: largest key, ``MAX_WEIGHT / MIN_EXPONENTIAL = 2**1023``, stays
#: finite, so no key overflows to ``inf``.
MAX_WEIGHT = 2.0**959

#: Same guard for uniform keys: the smallest positive double, so keys
#: stay strictly inside ``(0, 1)``.
MIN_UNIFORM = 5e-324


def exponential(rng: random.Random, rate: float = 1.0) -> float:
    """Draw an exponential variable with the given rate.

    Uses inversion (``-ln(U)/rate``) to match the bit-by-bit scheme of
    :class:`LazyExponential`, redrawing on ``U <= 0``.  For the
    scalar-only baselines, which hold a :class:`random.Random`; the
    engine-run actors draw ``standard_exponential`` from their
    generator and clamp it to :data:`MIN_EXPONENTIAL`.
    """
    if rate <= 0.0:
        raise ConfigurationError(f"exponential rate must be positive, got {rate}")
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return -math.log(u) / rate


def truncated_exponential_below(u: float, bound: float) -> float:
    """``t ~ Exp(1)`` conditioned on ``t < bound``, from one uniform
    ``u`` in ``[0, 1)``.

    Used by the duplication shortcuts: once a Binomial draw decides that
    a duplicate's key crossed the send threshold (``t < w/τ``), the
    actual key must be generated from the *conditional* distribution.
    Inversion of the truncated CDF: ``t = -ln(1 - U·(1 - e^{-bound}))``,
    floored at :data:`MIN_EXPONENTIAL` (``u == 0`` gives ``t == 0``).
    """
    if bound <= 0.0:
        raise ConfigurationError(f"truncation bound must be positive, got {bound}")
    # 1 - exp(-bound) is the total mass below the bound.
    mass = -math.expm1(-bound)
    t = max(-math.log1p(-u * mass), MIN_EXPONENTIAL)
    # Guard against floating round-up onto the bound itself.
    return min(t, bound * (1.0 - 1e-12))


class LazyExponential:
    """A rate-1 exponential generated bit-by-bit (Proposition 7).

    The exponential is ``t = -ln(U)`` for a uniform ``U`` whose binary
    expansion — the bits of one raw 64-bit word, most significant
    first (``generator.bit_generator.random_raw()``) — is revealed
    lazily.  After ``b`` bits, ``U`` is pinned to
    an interval ``[lo, lo + 2^-b)``; a comparison ``t < bound`` (i.e.
    ``U > e^{-bound}``) resolves as soon as the interval falls entirely
    on one side of ``e^{-bound}``.  Each extra bit halves the undecided
    mass, so comparisons take ``O(1)`` expected bits — the paper's
    argument for O(1) expected message size and generation time.

    Attributes
    ----------
    bits_used:
        Number of uniform bits revealed so far (the resource metric of
        experiment E12).
    """

    #: Bits at which :meth:`value` stops refining: the whole word.
    MAX_BITS = 64

    def __init__(self, word: int) -> None:
        self._word = word
        self._lo = 0.0  # lower end of the interval containing U
        self._width = 1.0
        self.bits_used = 0

    def _refine(self) -> None:
        bit = (self._word >> (self.MAX_BITS - 1 - self.bits_used)) & 1
        self.bits_used += 1
        self._width *= 0.5
        if bit:
            self._lo += self._width

    def below(self, bound: float) -> bool:
        """Decide whether ``t < bound``, revealing as few bits as needed.

        ``t < bound``  iff  ``U > e^{-bound}``.
        """
        if bound <= 0.0:
            return False
        target = math.exp(-bound)
        while True:
            if self._lo >= target:
                return True
            if self._lo + self._width <= target:
                return False
            if self.bits_used >= self.MAX_BITS:
                # Interval straddles the target at full precision; the
                # remaining mass is < 2^-64 — resolve by midpoint.
                return (self._lo + 0.5 * self._width) > target
            self._refine()

    def value(self) -> float:
        """Materialize ``t`` to double precision (refines to 64 bits)."""
        while self.bits_used < self.MAX_BITS and self._width > 1e-18:
            self._refine()
        u = self._lo + 0.5 * self._width
        if u <= 0.0:
            u = self._width * 0.5
        t = -math.log(u)
        if t <= 0.0:
            # u rounded up to 1.0 at double precision (all revealed
            # bits were 1): -log collapses to -0.0, which is not a
            # valid exponential.  -log(u) ~ 1-u near 1, so return the
            # pinned interval's midpoint distance from 1 instead.
            t = 0.5 * self._width
        return t
