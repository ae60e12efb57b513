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

Everything is built on :class:`random.Random` (deterministic, seedable,
and fast enough for the site hot path) with explicit sub-stream derivation
so distributed actors draw from independent, reproducible streams.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Optional, Sequence

import numpy as _np

from .errors import ConfigurationError

__all__ = [
    "MIN_EXPONENTIAL",
    "MIN_UNIFORM",
    "RandomSource",
    "BatchRandom",
    "LazyExponential",
    "exponential",
    "batch_exponentials",
    "batch_uniforms",
    "min_uniform_key_for_weight",
    "binomial",
    "restore_batch",
    "truncated_exponential_below",
]

class RandomSource:
    """A seedable root of independent random sub-streams.

    Each distributed actor (site, coordinator) and each independent
    sampler copy gets its own :class:`random.Random` derived from a root
    seed and a string label, so simulations are reproducible regardless
    of the interleaving chosen by the driver.

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

    def substream(self, label: str) -> random.Random:
        """Return an independent, reproducible :class:`random.Random`.

        The sub-stream is keyed by ``(root seed, label)``; the same pair
        always yields an identically-seeded generator.
        """
        h = random.Random(f"{self._seed}/{label}").getrandbits(64)
        return random.Random(h)

    def spawn(self, label: str) -> "RandomSource":
        """Derive a child :class:`RandomSource` (for nested protocols)."""
        return RandomSource(random.Random(f"{self._seed}//{label}").getrandbits(64))


#: Zero-guard floor shared by the batch generators: exponential draws
#: are clamped to at least this value so precision-sampling keys
#: ``w/t`` stay finite for any representable weight (``1e300 / 1e-300``
#: is still finite).  The scalar :func:`exponential` achieves the same
#: invariant differently — it *redraws* on ``U <= 0``, which keeps the
#: reference engine's historical draw sequence intact — but both
#: policies guarantee strictly positive, finite ``t`` and hence finite
#: keys; the regression tests in ``tests/test_common_rng.py`` pin both.
MIN_EXPONENTIAL = 1e-300

#: Same guard for uniform keys: the smallest positive double, so keys
#: stay strictly inside ``(0, 1)``.
MIN_UNIFORM = 5e-324


def exponential(rng: random.Random, rate: float = 1.0) -> float:
    """Draw an exponential variable with the given rate.

    Uses inversion (``-ln(U)/rate``) to match the bit-by-bit scheme of
    :class:`LazyExponential`.  The zero guard *redraws* on ``U <= 0``
    (rather than clamping like :meth:`BatchRandom.exponentials`) so the
    scalar draw sequence matches the pre-batching reference runs bit
    for bit; either policy yields strictly positive, finite ``t`` —
    see :data:`MIN_EXPONENTIAL`.
    """
    if rate <= 0.0:
        raise ConfigurationError(f"exponential rate must be positive, got {rate}")
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return -math.log(u) / rate


class BatchRandom:
    """Vectorized companion to a :class:`random.Random` sub-stream.

    The scalar protocol paths draw from :class:`random.Random` one
    variate at a time; the columnar data plane needs thousands per
    call.  A ``BatchRandom`` derives an independent, reproducible numpy
    generator (PCG64 keyed by 64 bits drawn from the parent stream) so
    the batch fast path keeps the determinism contract — same root
    seed, same run — without perturbing the parent stream beyond the
    one derivation draw.
    """

    def __init__(self, rng: random.Random) -> None:
        self._gen = _np.random.Generator(_np.random.PCG64(rng.getrandbits(64)))

    def exponentials(self, n: int, out=None):
        """``n`` i.i.d. rate-1 exponentials (float64 ndarray).

        The zero guard *clamps* draws to :data:`MIN_EXPONENTIAL` (numpy
        ziggurat draws can round to exactly 0.0), where the scalar
        :func:`exponential` redraws instead — a deliberate asymmetry:
        clamping is branch-free and vectorizable, redrawing preserves
        the reference engine's historical sequence.  Both guarantee
        strictly positive, finite draws, hence finite ``w/t`` keys.

        With ``out`` (a float64 slice of length ``n``, typically of a
        longer caller column) the same draws, in the same order, fill
        it in place *unclamped*, so a caller that fills many slices
        clamps the whole column once (``np.maximum(column,
        MIN_EXPONENTIAL, out=column)``) — the window pass of
        :meth:`repro.core.site.SworSite.prepare_window`.
        """
        if n < 0:
            raise ConfigurationError(f"batch size must be >= 0, got {n}")
        if out is not None:
            return self._gen.standard_exponential(out=out)
        draws = self._gen.standard_exponential(n)
        return _np.maximum(draws, MIN_EXPONENTIAL, out=draws)

    def uniforms(self, n: int):
        """``n`` i.i.d. uniforms in ``(0, 1)`` (float64 ndarray), clamped
        to at least :data:`MIN_UNIFORM`."""
        if n < 0:
            raise ConfigurationError(f"batch size must be >= 0, got {n}")
        draws = self._gen.random(n)
        return _np.maximum(draws, MIN_UNIFORM)

    def snapshot(self):
        """Opaque generator state for deterministic replay (a fresh
        dict, never mutated afterwards).

        Paired with :meth:`restore` and :func:`restore_batch`; site
        snapshots carry it, so the sharded engine rewinds a site to a
        window boundary without pickling.
        """
        return self._gen.bit_generator.state

    def restore(self, state) -> None:
        """Rewind to a :meth:`snapshot` of this stream or of a copy."""
        self._gen.bit_generator.state = state

    def binomials(self, n: int, ps):
        """One ``Binomial(n, p)`` draw per entry of ``ps`` (int64
        ndarray).

        The bulk counterpart of :func:`binomial` for the duplication
        shortcuts (SWR's aggregate coins, the L1 tracker's per-update
        copy counts): exact binomial sampling via numpy's generator.
        """
        if n < 0:
            raise ConfigurationError(f"binomial n must be >= 0, got {n}")
        return self._gen.binomial(n, _np.clip(ps, 0.0, 1.0))


def restore_batch(batch: Optional[BatchRandom], state) -> Optional[BatchRandom]:
    """A site's batch stream restored to ``state``, a
    :meth:`BatchRandom.snapshot` or ``None`` (no stream yet).

    ``None`` drops the stream: it was derived after the snapshot, and
    the restored scalar stream re-draws its derivation on replay.
    Otherwise ``batch`` rewinds in place, or, on a site that never
    derived one (the parent's copy of a site a worker ran), a new
    stream starts at ``state``."""
    if state is None:
        return None
    if batch is None:
        batch = BatchRandom.__new__(BatchRandom)
        batch._gen = _np.random.Generator(_np.random.PCG64(0))
    batch.restore(state)
    return batch


def batch_exponentials(rng: random.Random, n: int, rate: float = 1.0):
    """Draw ``n`` exponentials with the given rate in one call.

    Functional convenience over :class:`BatchRandom` for one-shot use;
    repeated callers should hold a ``BatchRandom`` to amortize the
    generator derivation.
    """
    if rate <= 0.0:
        raise ConfigurationError(f"exponential rate must be positive, got {rate}")
    draws = BatchRandom(rng).exponentials(n)
    if rate == 1.0:
        return draws
    return draws / rate


def batch_uniforms(rng: random.Random, n: int):
    """Draw ``n`` uniforms in ``(0, 1)`` in one call."""
    return BatchRandom(rng).uniforms(n)


def truncated_exponential_below(rng: random.Random, bound: float) -> float:
    """Draw ``t ~ Exp(1)`` conditioned on ``t < bound``.

    Used by the duplication shortcuts: once a Binomial draw decides that
    a duplicate's key crossed the send threshold (``t < w/τ``), the
    actual key must be generated from the *conditional* distribution.
    Inversion of the truncated CDF: ``t = -ln(1 - U·(1 - e^{-bound}))``.
    """
    if bound <= 0.0:
        raise ConfigurationError(f"truncation bound must be positive, got {bound}")
    u = rng.random()
    # 1 - exp(-bound) is the total mass below the bound.
    mass = -math.expm1(-bound)
    t = -math.log1p(-u * mass)
    # Guard against floating round-up onto the bound itself.
    return min(t, bound * (1.0 - 1e-12))


def min_uniform_key_for_weight(rng: random.Random, weight: float) -> float:
    """Minimum of ``weight`` i.i.d. uniform(0,1) keys, in one draw.

    For the SWR reduction (Corollary 1) an item of integer weight ``w``
    stands for ``w`` unit copies, each with its own uniform key; only
    the minimum matters to a min-key sampler.  ``min`` of ``w`` uniforms
    has CDF ``1-(1-x)^w``, inverted here as ``1-(1-U)^{1/w}``.  The
    formula extends continuously to fractional weights.
    """
    if weight <= 0.0:
        raise ConfigurationError(f"weight must be positive, got {weight}")
    u = rng.random()
    x = -math.expm1(math.log1p(-u) / weight)
    # Float-edge guard: for weight < 1 the exponent 1/weight amplifies
    # log1p(-u), and -expm1 of a large-magnitude argument rounds to
    # exactly 1.0 — keys must stay strictly inside the unit interval.
    return min(x, 1.0 - 2.0**-53)


def binomial(rng: random.Random, n: int, p: float) -> int:
    """Draw ``Binomial(n, p)`` from a scalar stream (hot-path friendly).

    Uses direct Bernoulli summation for small ``n`` and a normal
    approximation with continuity correction, clamped and resampled
    through inversion when near the tails, for large ``n``.  The
    distributional fidelity the protocols need is "how many of ``n``
    independent coins landed heads", and for the large-``n`` regime the
    callers only consume the value through concentration arguments, so
    the standard BTPE-grade approximation is sufficient; tests check
    mean/variance against theory.
    """
    if n < 0:
        raise ConfigurationError(f"binomial n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"binomial p must be in [0,1], got {p}")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    if n <= 64:
        return sum(1 for _ in range(n) if rng.random() < p)
    # Inversion via waiting-time geometric jumps: expected work O(n*p),
    # exact distribution. Fall back to normal approx only when n*p huge.
    mean = n * p
    if mean <= 4096:
        # Geometric-jump inversion (exact): count successes by skipping
        # failures in blocks of Geometric(p).
        count = 0
        i = 0
        log_q = math.log1p(-p)
        if log_q == 0.0:  # p underflowed: successes are impossible
            return 0
        while True:
            u = rng.random()
            while u <= 0.0:
                u = rng.random()
            jump = math.log(u) / log_q
            if jump > n:  # guard the float->int conversion
                return count
            i += int(math.floor(jump)) + 1
            if i > n:
                return count
            count += 1
    # Very large n*p: normal approximation with clamping (used only by
    # stress benchmarks; error is negligible at this scale).
    sd = math.sqrt(n * p * (1.0 - p))
    val = int(round(rng.gauss(mean, sd)))
    return max(0, min(n, val))


class LazyExponential:
    """A rate-1 exponential generated bit-by-bit (Proposition 7).

    The exponential is ``t = -ln(U)`` for a uniform ``U`` whose binary
    expansion is revealed lazily.  After ``b`` bits, ``U`` is pinned to
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

    #: Bits at which :meth:`value` stops refining (one double's mantissa).
    MAX_BITS = 64

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._lo = 0.0  # lower end of the interval containing U
        self._width = 1.0
        self.bits_used = 0

    def _refine(self) -> None:
        bit = self._rng.getrandbits(1)
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


def key_stream(rng: random.Random, weights: Sequence[float]) -> Iterator[float]:
    """Yield precision-sampling keys ``w_i / t_i`` for a weight sequence."""
    for w in weights:
        yield w / exponential(rng)
