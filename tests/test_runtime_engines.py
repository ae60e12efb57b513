"""Engine parity tests: reference vs columnar runtimes.

Three contracts pin the `repro.runtime` refactor:

1. the reference engine is *byte-identical* to the pre-refactor
   ``Network.run`` — golden fingerprints recorded before the refactor
   must keep reproducing exactly;
2. the columnar engine is *distributionally* identical — same inclusion
   law (chi-square against the exact SWOR probabilities) — and pays at
   most a bounded message overhead for its staleness;
3. a batch size of 1 degenerates to the reference engine exactly (same
   RNG consumption, same delivery interleaving, same counters).

Plus edge cases: checkpoint splitting, vectorized level parity, the
stale-EARLY fold, and `LazyExponential` key clamping
(`core/site.py`'s ``_regular_lazy``).
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.common import (
    RandomSource,
    chi_square_pvalue,
    chi_square_statistic,
    exact_swor_inclusion_probabilities,
)
from repro.core import (
    DistributedUnweightedSWOR,
    DistributedWeightedSWOR,
    SworConfig,
    SworSite,
    level_of,
)
from repro.core.levels import levels_of_array
from repro.analysis import bounds
from repro.common.errors import ConfigurationError
from repro.net.messages import REGULAR
from repro.runtime import ColumnarEngine, ReferenceEngine, get_engine
from repro.stream import (
    Item,
    heavy_to_one_site,
    round_robin,
    zipf_stream,
)

np = pytest.importorskip("numpy")


# ---------------------------------------------------------------------------
# Golden fingerprints of the reference engine, recorded with one PCG64
# generator per actor (``RandomSource.generator``) — it must reproduce
# them bit for bit.
# ---------------------------------------------------------------------------

GOLDEN = {
    7: (546, 418, 128, (805, 4020, 4755, 1041, 4620, 4722, 2680, 3336)),
    2019: (543, 423, 120, (816, 3032, 1720, 1475, 3689, 3793, 2401, 3924)),
}


def _swor_fingerprint(seed: int, engine=None, batch_size=None):
    rng = random.Random(1234)
    items = zipf_stream(5000, rng, alpha=1.3)
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=8, sample_size=8),
        seed=seed,
        engine=engine,
        batch_size=batch_size,
    )
    counters = proto.run(round_robin(items, 8))
    idents = tuple(item.ident for item in proto.sample())
    return counters.total, counters.upstream, counters.downstream, idents


class TestReferenceEngineGolden:
    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_default_run_matches_pre_refactor_fingerprint(self, seed):
        assert _swor_fingerprint(seed) == GOLDEN[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_explicit_reference_engine_matches(self, seed):
        assert _swor_fingerprint(seed, engine=ReferenceEngine()) == GOLDEN[seed]

    def test_engine_name_string_resolves(self):
        assert _swor_fingerprint(7, engine="reference") == GOLDEN[7]


class TestBatchSizeOneIsReference:
    """Batch size 1 must consume the same RNG draws in the same order
    and interleave delivery identically — not just the same law."""

    def test_swor_identical(self):
        one = ColumnarEngine(batch_size=1)
        assert _swor_fingerprint(7, engine=one) == GOLDEN[7]

    def test_unweighted_identical(self):
        items = [Item(i, 1.0) for i in range(3000)]
        stream = round_robin(items, 8)

        def run(engine):
            proto = DistributedUnweightedSWOR(8, 8, seed=11, engine=engine)
            counters = proto.run(stream)
            return (
                counters.total,
                counters.upstream,
                tuple(item.ident for item in proto.sample()),
            )

        assert run(ColumnarEngine(batch_size=1)) == run(None)


class TestColumnarDistribution:
    """E4-style check: the columnar engine obeys the exact SWOR law even
    with the whole (tiny) stream covered by two stale batches."""

    WEIGHTS = [1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 1.0, 512.0]
    K, S, TRIALS = 4, 3, 2000

    def test_inclusion_law_chi_square(self):
        items = [Item(i, w) for i, w in enumerate(self.WEIGHTS)]
        stream = heavy_to_one_site(items, self.K)
        engine = ColumnarEngine(batch_size=4, initial_batch_size=4)
        counts = Counter()
        for trial in range(self.TRIALS):
            proto = DistributedWeightedSWOR(
                SworConfig(num_sites=self.K, sample_size=self.S),
                seed=trial,
                engine=engine,
            )
            proto.run(stream)
            for item in proto.sample():
                counts[item.ident] += 1
        exact = exact_swor_inclusion_probabilities(self.WEIGHTS, self.S)
        expected = {i: self.TRIALS * p for i, p in enumerate(exact)}
        stat, df = chi_square_statistic(counts, expected)
        pvalue = chi_square_pvalue(stat, df)
        assert pvalue > 1e-4, (
            "columnar sample deviates from the exact SWOR law "
            f"(chi2={stat:.2f}, p={pvalue:.2e})"
        )

    def test_message_overhead_bounded(self):
        """Staleness may only add messages the coordinator discards;
        the total must stay within a 1.5x slack of the reference run
        (and hence within the same slack of the paper's bound shape)."""
        rng = random.Random(5)
        items = zipf_stream(20_000, rng, alpha=1.2)
        stream = round_robin(items, 16)
        cfg = SworConfig(num_sites=16, sample_size=16)

        def total(engine):
            proto = DistributedWeightedSWOR(cfg, seed=3, engine=engine)
            return proto.run(stream).total

        reference = total(None)
        columnar = total(ColumnarEngine())
        assert columnar <= 1.5 * reference
        # Sanity against the closed form itself: same order of
        # magnitude as the reference engine's bound ratio.
        bound = bounds.swor_message_bound(16, 16, stream.total_weight())
        assert columnar / bound <= 1.5 * max(1.0, reference / bound)

    def test_sample_size_and_validity(self):
        rng = random.Random(9)
        items = zipf_stream(5000, rng, alpha=1.3)
        stream = round_robin(items, 8)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=8, sample_size=8),
            seed=1,
            engine="columnar",
            batch_size=512,
        )
        proto.run(stream)
        pairs = proto.sample_with_keys()
        assert len(pairs) == 8
        keys = [key for _, key in pairs]
        assert keys == sorted(keys, reverse=True)
        assert all(math.isfinite(k) and k > 0 for k in keys)


class TestColumnarMechanics:
    def test_checkpoints_fire_exactly_mid_batch(self):
        items = [Item(i, 1.0 + (i % 7)) for i in range(1000)]
        stream = round_robin(items, 4)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=4, sample_size=4),
            seed=2,
            engine=ColumnarEngine(batch_size=256, initial_batch_size=256),
        )
        seen = []
        marks = [1, 100, 300, 999, 1000]
        proto.run(stream, checkpoints=marks, on_checkpoint=seen.append)
        assert seen == marks

    def test_checkpoints_cumulative_on_reused_network(self):
        """Checkpoints count cumulative items_processed, like the
        reference engine — a network warmed up with process() calls
        must not re-fire early marks against the new stream."""
        items = [Item(i, 1.0) for i in range(400)]

        def fired(engine):
            proto = DistributedWeightedSWOR(
                SworConfig(num_sites=4, sample_size=4), seed=6, engine=engine
            )
            for i in range(100):  # warm-up: cumulative clock at 100
                proto.process(i % 4, Item(1000 + i, 1.0))
            stream = round_robin(items, 4)
            seen = []
            proto.run(stream, checkpoints=[50, 150, 500], on_checkpoint=seen.append)
            return seen

        reference = fired(None)
        assert reference == [150, 500]
        assert fired(ColumnarEngine(batch_size=64, initial_batch_size=64)) == reference

    def test_on_step_monotone_and_complete(self):
        items = [Item(i, 1.0) for i in range(500)]
        stream = round_robin(items, 4)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=4, sample_size=4),
            seed=2,
            engine="columnar",
            batch_size=128,
        )
        ticks = []
        proto.run(stream, on_step=ticks.append)
        assert ticks == sorted(ticks)
        assert ticks[-1] == 500

    def test_columnar_deterministic_given_seed(self):
        fp1 = _swor_fingerprint(7, engine="columnar", batch_size=512)
        fp2 = _swor_fingerprint(7, engine="columnar", batch_size=512)
        assert fp1 == fp2
        assert fp1 != _swor_fingerprint(8, engine="columnar", batch_size=512)

    def test_engine_registry(self):
        assert isinstance(get_engine(None), ReferenceEngine)
        assert isinstance(get_engine("columnar", batch_size=64), ColumnarEngine)
        inst = ColumnarEngine(batch_size=32)
        assert get_engine(inst) is inst
        with pytest.raises(ConfigurationError):
            get_engine("warp-drive")
        with pytest.raises(
            ConfigurationError, match=r"known: columnar, reference, sharded\)"
        ):
            get_engine("batched")
        with pytest.raises(ConfigurationError):
            get_engine("reference", batch_size=4)
        with pytest.raises(ConfigurationError):
            get_engine(inst, batch_size=4)
        with pytest.raises(ConfigurationError):
            ColumnarEngine(batch_size=0)


class TestVectorizedPrimitives:
    def test_levels_of_array_matches_scalar(self, rng):
        weights = [rng.uniform(1.0, 1e6) for _ in range(500)]
        weights += [1.0, 2.0, 4.0, 8.0, 2.0**40, 3.0**12]
        for r in (2.0, 2.5, 4.0):
            vec = levels_of_array(np.array(weights), r)
            assert list(vec) == [level_of(w, r) for w in weights]

    def test_batch_primitive_functions(self):
        """The column draws the sites make: rate-1 exponentials and
        uniforms in ``[0, 1)`` from an actor's generator."""
        gen = RandomSource(1).generator("site-0")
        t = gen.standard_exponential(5000)
        assert len(t) == 5000 and (t >= 0).all()
        assert abs(float(np.mean(t)) - 1.0) < 0.05
        u = gen.random(1000)
        assert len(u) == 1000 and ((u >= 0) & (u < 1)).all()

    def test_batch_random_reproducible(self):
        a = RandomSource(42).generator("site-0").standard_exponential(100)
        b = RandomSource(42).generator("site-0").standard_exponential(100)
        assert np.array_equal(a, b)
        c = RandomSource(42).generator("site-1").standard_exponential(100)
        assert not np.array_equal(a, c)

    def test_site_bulk_hook_matches_scalar_law(self):
        """The vectorized on_columns path must emit REGULAR keys above
        the threshold only, tagged with the right idents."""
        config = SworConfig(num_sites=2, sample_size=2, level_sets_enabled=False)
        site = SworSite(0, config, RandomSource(3).generator("site-0"))
        site._threshold = 5.0
        items = [Item(i, float(1 + i % 4)) for i in range(256)]
        pack = site.on_columns(
            np.arange(256, dtype=np.int64),
            np.array([item.weight for item in items]),
        )
        assert site.items_seen == 256
        assert site.exponentials_generated == 256
        for message in pack.messages():
            assert message.kind == REGULAR
            ident, weight, key = message.payload
            assert key > 5.0
            assert items[ident].weight == weight


#: A raw word whose every bit is 1, pinning U arbitrarily close to 1 so
#: ``LazyExponential.value()`` is as small as 64 bits allow.
_ALL_ONES = 2**64 - 1


class _TinyValueLazy:
    """Stub LazyExponential whose materialized value is below
    ``MIN_EXPONENTIAL`` — drives the key clamp in ``_regular_lazy``."""

    def __init__(self, _word):
        self.bits_used = 1

    def below(self, _bound):
        return True

    def value(self):
        return 5e-324  # smallest positive subnormal: w / t == inf


class TestLazyExponentialOverflow:
    def test_value_never_returns_zero_at_max_bits(self):
        from repro.common.rng import LazyExponential

        lazy = LazyExponential(_ALL_ONES)
        t = lazy.value()
        assert t > 0.0 and math.isfinite(t)
        assert lazy.bits_used <= LazyExponential.MAX_BITS

    def test_overflowing_key_is_clamped(self, monkeypatch):
        """site.py's ``_regular_lazy`` clamps ``t`` to
        ``MIN_EXPONENTIAL`` before ``v = w / t``, as every key path
        does; force the clamp with a stub whose value() is subnormal."""
        from repro.common.rng import MIN_EXPONENTIAL

        import repro.core.site as site_mod

        monkeypatch.setattr(site_mod, "LazyExponential", _TinyValueLazy)
        config = SworConfig(
            num_sites=2, sample_size=2, level_sets_enabled=False, count_bits=True
        )
        site = SworSite(0, config, RandomSource(1).generator("site-0"))
        site._threshold = 1.0  # below() path (threshold > 0)
        messages = site.on_item(Item(0, 2.0))
        assert len(messages) == 1
        _, _, key = messages[0].payload
        assert math.isfinite(key)
        assert key == 2.0 / MIN_EXPONENTIAL

    def test_lazy_mode_end_to_end_finite_keys(self):
        """count_bits mode (bit-by-bit generation) stays finite across
        a real run — the engine falls back to the scalar path."""
        rng = random.Random(1)
        items = zipf_stream(1500, rng, alpha=1.3)
        stream = round_robin(items, 4)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=4, sample_size=4, count_bits=True),
            seed=5,
            engine="columnar",
            batch_size=256,
        )
        proto.run(stream)
        assert all(
            math.isfinite(key) for _, key in proto.sample_with_keys()
        )
        report = proto.resource_report()
        assert report["bits_generated"] > 0
