"""Columnar runtime tests: zero-object streams, packs, and the engine.

Six contracts pin the columnar refactor:

1. **Stream round-trip** — ``ColumnarStream`` <-> ``DistributedStream``
   converts exactly (idents and weights bit for bit), with a lazy
   ``items`` view that never materializes the stream;
2. **Pack accounting** — a ``MessagePack``'s word/count accounting
   equals the sum over the individual messages it replaces, exactly;
3. **Engine bit-parity** — the columnar engine reproduces the batched
   engine's samples *and* counters bit for bit (same RNG draw order),
   on both stream representations, under tracing, and across the
   coordinator's bulk/replay paths;
4. **Scalar fallback** — with numpy simulated away the columnar engine
   degrades to the batched engine's object path, and at batch size 1
   to the reference engine exactly;
5. **Bulk sample merge** — ``TopKeySample.merge_columns`` equals
   sequential ``add`` calls (including the tie fallback), and the
   sorted query view is cached per mutation epoch;
6. **Window grouping** — the engines' counting-sort ``window_order``
   equals a stable comparison sort of the window's rows by site, at
   every key width, and engine runs are unchanged under that oracle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, ProtocolViolationError
from repro.common.words import words_for_value, words_for_values_array
from repro.core import (
    DistributedUnweightedSWOR,
    DistributedWeightedSWOR,
    SworConfig,
)
from repro.core.coordinator import SworCoordinator
from repro.core.sample_set import TopKeySample
from repro.net.counters import MessageCounters
from repro.net.messages import EARLY, Message, MessagePack, REGULAR
from repro.net.tracing import MessageTrace
from repro.runtime import BatchedEngine, ColumnarEngine, get_engine
from repro.stream import (
    ColumnarStream,
    DistributedStream,
    Item,
    columnar_zipf_stream,
    heavy_to_one_site,
    round_robin,
    uniform_random,
    zipf_stream,
)

np = pytest.importorskip("numpy")


def _swor_run(stream, engine, seed=7, sites=8, sample=8, **kwargs):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=sites, sample_size=sample),
        seed=seed,
        engine=engine,
    )
    counters = proto.run(stream, **kwargs)
    return proto, counters


def _fingerprint(proto, counters):
    return (
        counters.snapshot(),
        tuple(
            (item.ident, item.weight, key)
            for item, key in proto.sample_with_keys()
        ),
    )


# ---------------------------------------------------------------------------
# 1. ColumnarStream
# ---------------------------------------------------------------------------


class TestColumnarStream:
    def _stream(self, n=500, k=7, seed=3):
        items = zipf_stream(n, random.Random(seed), alpha=1.3)
        return round_robin(items, k)

    def test_round_trip_exact(self):
        stream = self._stream()
        columnar = ColumnarStream.from_distributed(stream)
        back = columnar.to_distributed()
        assert back.items == stream.items
        assert back.assignment == stream.assignment
        assert back.num_sites == stream.num_sites

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        k=st.integers(min_value=1, max_value=9),
        data=st.data(),
    )
    def test_round_trip_property(self, weights, k, data):
        idents = data.draw(
            st.lists(
                st.integers(min_value=-(2**62), max_value=2**62),
                min_size=len(weights),
                max_size=len(weights),
            )
        )
        assignment = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=k - 1),
                min_size=len(weights),
                max_size=len(weights),
            )
        )
        stream = DistributedStream(
            [Item(e, w) for e, w in zip(idents, weights)], assignment, k
        )
        back = ColumnarStream.from_distributed(stream).to_distributed()
        assert back.items == stream.items  # bit-exact floats and ints
        assert back.assignment == stream.assignment

    def test_lazy_items_view(self):
        stream = self._stream(n=50)
        columnar = ColumnarStream.from_distributed(stream)
        view = columnar.items
        assert len(view) == 50
        assert view[0] == stream.items[0]
        assert view[-1] == stream.items[-1]
        assert view[10:13] == stream.items[10:13]
        assert list(view) == stream.items
        with pytest.raises(IndexError):
            view[50]

    def test_iteration_yields_site_item_pairs(self):
        stream = self._stream(n=40)
        columnar = ColumnarStream.from_distributed(stream)
        assert list(columnar) == list(stream)

    def test_generate_chunked_fill(self):
        def fill(lo, idents, weights, sites):
            n = len(idents)
            idents[:] = np.arange(lo, lo + n)
            weights[:] = np.arange(lo, lo + n) + 1.0
            sites[:] = np.arange(lo, lo + n) % 3

        columnar = ColumnarStream.generate(100, 3, fill, chunk_size=7)
        assert len(columnar) == 100
        assert columnar.items[42] == Item(42, 43.0)
        assert int(columnar.assignment[42]) == 0

    def test_generator_round_robin_zipf(self):
        columnar = columnar_zipf_stream(1000, 8, seed=5, alpha=1.2)
        assert len(columnar) == 1000
        assert columnar.num_sites == 8
        assert (columnar.weights >= 1.0).all()
        assert (columnar.sites == np.arange(1000) % 8).all()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ColumnarStream([1], [1.0, 2.0], [0], 1)
        with pytest.raises(ConfigurationError):
            ColumnarStream([1], [1.0], [3], 2)
        with pytest.raises(ConfigurationError):
            ColumnarStream([1], [1.0], [0], 0)

    def test_arrays_triple_matches_distributed(self):
        stream = self._stream(n=64)
        columnar = ColumnarStream.from_distributed(stream)
        a_s, a_w, a_i = stream.arrays()
        c_s, c_w, c_i = columnar.arrays()
        assert (a_s == c_s).all()
        assert (a_w == c_w).all()
        assert (a_i == c_i).all()

    def test_iter_batches_matches(self):
        stream = self._stream(n=30)
        columnar = ColumnarStream.from_distributed(stream)
        got = [
            (sites, items) for sites, items in columnar.iter_batches(7)
        ]
        want = [(sites, items) for sites, items in stream.iter_batches(7)]
        assert got == want

    def test_non_integer_idents_fall_back(self):
        stream = DistributedStream([Item("a", 2.0)], [0], 1)  # type: ignore[arg-type]
        assert stream.arrays()[2] is None
        with pytest.raises(ConfigurationError):
            ColumnarStream.from_distributed(stream)

    def test_float_idents_fall_back_not_truncate(self):
        # np.fromiter would silently truncate 2.5 -> 2; arrays() must
        # instead take the object-path fallback for non-integral idents.
        stream = DistributedStream([Item(2.5, 2.0)], [0], 1)  # type: ignore[arg-type]
        assert stream.arrays()[2] is None


# ---------------------------------------------------------------------------
# 2. MessagePack accounting
# ---------------------------------------------------------------------------


class TestPackAccounting:
    def _random_pack(self, rng, ne, nr, huge=False):
        scale = 1e280 if huge else 1e6
        return MessagePack(
            np.array([rng.randrange(2**40) for _ in range(ne)], dtype=np.int64),
            np.array([rng.uniform(1, scale) for _ in range(ne)]),
            np.array([rng.randrange(20) for _ in range(ne)], dtype=np.int64),
            np.array([rng.randrange(2**40) for _ in range(nr)], dtype=np.int64),
            np.array([rng.uniform(1, scale) for _ in range(nr)]),
            np.array([rng.uniform(1, 1e300 if huge else 1e9) for _ in range(nr)]),
        )

    @pytest.mark.parametrize("ne,nr,huge", [
        (3, 5, False),
        (0, 4, False),
        (6, 0, False),
        (2, 3, True),
        (100, 80, False),   # above the scalar-accounting cutoff
        (50, 70, True),
    ])
    def test_pack_counts_equal_per_message_counts(self, rng, ne, nr, huge):
        pack = self._random_pack(rng, ne, nr, huge=huge)
        bulk = MessageCounters()
        bulk.record_upstream_pack(pack)
        scalar = MessageCounters()
        for message in pack.messages():
            scalar.record_upstream(message)
        assert bulk.snapshot() == scalar.snapshot()

    def test_empty_pack_counts_nothing(self):
        counters = MessageCounters()
        counters.record_upstream_pack(MessagePack())
        assert counters.total == 0

    def test_messages_materialize_in_delivery_order(self):
        pack = MessagePack(
            np.array([1, 2]), np.array([3.0, 4.0]), np.array([0, 1]),
            np.array([9]), np.array([5.0]), np.array([7.5]),
        )
        assert pack.messages() == [
            Message(EARLY, (1, 3.0)),
            Message(EARLY, (2, 4.0)),
            Message(REGULAR, (9, 5.0, 7.5)),
        ]
        assert len(pack) == 3

    def test_words_for_values_array_matches_scalar(self, rng):
        values = (
            [0.0, 1.0, -1.0, 2.0**62, 2.0**62 + 2**10, 2.0**63, 2.0**64]
            + [rng.uniform(-1e300, 1e300) for _ in range(200)]
            + [rng.uniform(-1e9, 1e9) for _ in range(200)]
        )
        vectorized = words_for_values_array(np.array(values))
        for value, words in zip(values, vectorized.tolist()):
            assert words == words_for_value(float(value)), value


# ---------------------------------------------------------------------------
# 3. Engine bit-parity with the batched engine
# ---------------------------------------------------------------------------


class TestColumnarEngineParity:
    @pytest.mark.parametrize("seed,k,s,partition", [
        (7, 8, 8, round_robin),
        (2019, 32, 16, round_robin),
        (3, 5, 4, heavy_to_one_site),
    ])
    def test_bit_identical_to_batched(self, seed, k, s, partition):
        items = zipf_stream(40_000, random.Random(seed), alpha=1.25)
        stream = partition(items, k)
        batched = _fingerprint(*_swor_run(stream, "batched", seed, k, s))
        columnar = _fingerprint(*_swor_run(stream, "columnar", seed, k, s))
        assert columnar == batched

    def test_columnar_stream_input_identical(self):
        stream = round_robin(zipf_stream(25_000, random.Random(1), alpha=1.2), 8)
        columnar = ColumnarStream.from_distributed(stream)
        a = _fingerprint(*_swor_run(stream, "columnar"))
        b = _fingerprint(*_swor_run(columnar, "columnar"))
        assert a == b

    def test_generic_site_default_on_columns(self):
        """Protocols without a columnar hook run through the default
        wrapper — still bit-identical to the batched engine."""
        items = [Item(i, 1.0) for i in range(8000)]
        stream = round_robin(items, 8)

        def run(engine):
            proto = DistributedUnweightedSWOR(8, 8, seed=11, engine=engine)
            counters = proto.run(stream)
            return (
                counters.snapshot(),
                tuple(item.ident for item in proto.sample()),
            )

        assert run("columnar") == run("batched")

    def test_checkpoints_fire_exactly_and_accumulate(self):
        stream = round_robin(zipf_stream(9000, random.Random(4), alpha=1.3), 8)
        seen_b, seen_c = [], []
        proto_b, _ = _swor_run(
            stream, "batched",
            checkpoints=[1, 300, 8191, 9000],
            on_checkpoint=seen_b.append,
        )
        proto_c, _ = _swor_run(
            stream, "columnar",
            checkpoints=[1, 300, 8191, 9000],
            on_checkpoint=seen_c.append,
        )
        assert seen_b == seen_c == [1, 300, 8191, 9000]
        assert proto_b.sample_with_keys() == proto_c.sample_with_keys()
        # cumulative clock across run() calls on a reused network
        more = round_robin(zipf_stream(1000, random.Random(5), alpha=1.3), 8)
        seen2 = []
        proto_c.run(more, checkpoints=[9500], on_checkpoint=seen2.append)
        assert seen2 == [9500]

    def test_tracing_preserves_per_message_causal_order(self):
        stream = round_robin(zipf_stream(6000, random.Random(9), alpha=1.3), 8)

        def traced(engine):
            proto = DistributedWeightedSWOR(
                SworConfig(num_sites=8, sample_size=8), seed=7, engine=engine
            )
            trace = MessageTrace.attach(proto.network)
            proto.run(stream)
            return trace.events, proto.sample_with_keys(), proto.counters.snapshot()

        events_b, sample_b, counters_b = traced("batched")
        events_c, sample_c, counters_c = traced("columnar")
        assert events_c == events_b
        assert sample_c == sample_b
        assert counters_c == counters_b

    def test_class_level_wrapper_sees_every_upstream_message(self, monkeypatch):
        """Instrumentation installed on the class (not the instance)
        must also force per-message pack expansion."""
        from repro.runtime.network import Network

        seen = []
        original = Network.deliver_upstream

        def spy(self, site_id, message):
            seen.append(message.kind)
            return original(self, site_id, message)

        monkeypatch.setattr(Network, "deliver_upstream", spy)
        stream = round_robin(zipf_stream(4000, random.Random(1), alpha=1.3), 8)
        _, counters = _swor_run(stream, "columnar")
        assert len(seen) == counters.upstream > 0

    def test_engine_registry_and_batch_size(self):
        engine = get_engine("columnar", batch_size=512)
        assert isinstance(engine, ColumnarEngine)
        assert isinstance(engine, BatchedEngine)
        assert engine.batch_size == 512
        with pytest.raises(ConfigurationError):
            get_engine("reference", batch_size=512)

    def test_batch_size_one_is_reference(self):
        stream = round_robin(zipf_stream(3000, random.Random(2), alpha=1.3), 8)
        ref = _fingerprint(*_swor_run(stream, None))
        one = _fingerprint(*_swor_run(stream, ColumnarEngine(batch_size=1)))
        assert one == ref

    def test_sub_one_weights_with_open_level_zero(self):
        """Level 0 open while a higher level is saturated: sub-1 weights
        live in level 0 and must stay EARLY — the window-prep heavy-floor
        shortcut proves nothing when the lowest open level is 0."""
        from repro.core import SworSite
        from repro.net.messages import LEVEL_SATURATED

        config = SworConfig(num_sites=4, sample_size=2)  # r = 2
        shared = SworSite(0, config, random.Random(1))
        solo = SworSite(0, config, random.Random(1))
        for site in (shared, solo):
            site.on_control(Message(LEVEL_SATURATED, (1,)))  # bit 0 stays clear
        weights = np.array([0.5, 2.0, 4.0, 0.9])  # levels 0, 1, 2, 0
        idents = np.arange(4, dtype=np.int64)
        prep = shared.prepare_window(weights)
        with_prep = shared.on_columns(idents, weights, prep=(prep, 0, 4))
        without_prep = solo.on_columns(idents, weights)
        assert with_prep.messages() == without_prep.messages()
        assert with_prep.num_early == 3  # only the saturated level-1 item filters

    def test_parity_with_sub_one_weights_and_open_level_zero(self):
        """End-to-end bit-parity on a stream where a higher level
        saturates while level 0 never does (rare sub-1 weights)."""
        rng = random.Random(21)
        rare = set(rng.sample(range(20_000), 20))
        items = [
            Item(i, 0.5 if i in rare else rng.uniform(2.0, 3.9))
            for i in range(20_000)
        ]
        stream = round_robin(items, 8)
        batched = _fingerprint(*_swor_run(stream, "batched", seed=5, sample=4))
        columnar = _fingerprint(*_swor_run(stream, "columnar", seed=5, sample=4))
        assert columnar == batched

    def test_coordinator_stats_match_on_replay_paths(self):
        """early_received / regular_received / levels state agree with
        batched (accepted-counts may differ only on the bulk fast path,
        which is documented)."""
        stream = round_robin(zipf_stream(30_000, random.Random(6), alpha=1.2), 8)
        proto_b, _ = _swor_run(stream, "batched", seed=6)
        proto_c, _ = _swor_run(stream, "columnar", seed=6)
        cb, cc = proto_b.coordinator, proto_c.coordinator
        assert cc.early_received == cb.early_received
        assert cc.regular_received == cb.regular_received
        assert cc.early_for_saturated == cb.early_for_saturated
        assert cc.levels.saturated_levels == cb.levels.saturated_levels
        assert sorted(
            (i.ident, k) for i, k in cc.levels.pending_entries()
        ) == sorted((i.ident, k) for i, k in cb.levels.pending_entries())


# ---------------------------------------------------------------------------
# 4. Coordinator pack paths (bulk commit vs sequential replay)
# ---------------------------------------------------------------------------


class TestCoordinatorPackPaths:
    def _twins(self, k=4, s=3, saturation=4):
        config = SworConfig(
            num_sites=k,
            sample_size=s,
            # saturation_size is derived as round(factor * r * s).
            level_set_factor=saturation / (max(2.0, k / s) * s),
        )
        assert config.saturation_size == saturation
        bulk = SworCoordinator(config, random.Random(42))
        seq = SworCoordinator(config, random.Random(42))
        return bulk, seq

    def _assert_equivalent(self, bulk, seq, pack):
        responses_bulk = bulk.on_message_pack(0, pack)
        responses_seq = []
        for message in pack.messages():
            responses_seq.extend(seq.on_message(0, message))
        assert [(d, m.kind, m.payload) for d, m in responses_bulk] == [
            (d, m.kind, m.payload) for d, m in responses_seq
        ]
        assert bulk.sample_with_keys() == seq.sample_with_keys()
        assert bulk.early_received == seq.early_received
        assert bulk.regular_received == seq.regular_received
        assert bulk.levels.saturated_levels == seq.levels.saturated_levels

    def test_saturating_pack_takes_replay_path(self):
        """A pack whose earlies saturate a level must broadcast at the
        exact release point — forced through the sequential replay."""
        bulk, seq = self._twins(saturation=3)
        pack = MessagePack(
            np.arange(5, dtype=np.int64),
            np.ones(5),            # all level 0 -> saturates at the 3rd
            np.zeros(5, dtype=np.int64),
        )
        self._assert_equivalent(bulk, seq, pack)
        assert bulk.early_for_saturated == seq.early_for_saturated == 2

    def test_epoch_crossing_pack_takes_replay_path(self):
        bulk, seq = self._twins(s=2, saturation=4)
        # Pre-saturate level 0 so regulars flow; huge keys force the
        # threshold through several epoch brackets inside one pack.
        warm = MessagePack(
            np.arange(4, dtype=np.int64),
            np.ones(4),
            np.zeros(4, dtype=np.int64),
        )
        self._assert_equivalent(bulk, seq, warm)
        pack = MessagePack(
            regular_idents=np.array([10, 11, 12], dtype=np.int64),
            regular_weights=np.array([1.0, 1.0, 1.0]),
            regular_keys=np.array([5.0, 40.0, 600.0]),
        )
        self._assert_equivalent(bulk, seq, pack)
        assert bulk.epochs.epoch == seq.epochs.epoch

    def test_quiet_pack_takes_bulk_path(self, rng):
        bulk, seq = self._twins()
        pack = MessagePack(
            np.arange(2, dtype=np.int64),
            np.array([1.0, 2.0]),
            np.zeros(2, dtype=np.int64),
            np.array([7, 8], dtype=np.int64),
            np.array([3.0, 4.0]),
            np.array([0.5, 0.25]),
        )
        self._assert_equivalent(bulk, seq, pack)
        assert bulk.levels.pending_count() == 2

    def test_early_for_disabled_level_sets_raises(self):
        config = SworConfig(num_sites=4, sample_size=3, level_sets_enabled=False)
        coord = SworCoordinator(config, random.Random(0))
        pack = MessagePack(
            np.array([1], dtype=np.int64), np.array([2.0]),
            np.array([0], dtype=np.int64),
        )
        with pytest.raises(ProtocolViolationError):
            coord.on_message_pack(0, pack)


# ---------------------------------------------------------------------------
# 5. TopKeySample bulk merge + cached sorted view
# ---------------------------------------------------------------------------


class TestTopKeySampleMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        s=st.integers(min_value=1, max_value=12),
        keys=st.lists(
            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=50,
        ),
    )
    def test_merge_equals_sequential(self, s, keys):
        bulk = TopKeySample(s)
        seq = TopKeySample(s)
        half = len(keys) // 2
        for i, key in enumerate(keys[:half]):
            bulk.add(Item(i, 1.0), key)
            seq.add(Item(i, 1.0), key)
        threshold = bulk.threshold
        cand = [
            (half + j, key)
            for j, key in enumerate(keys[half:])
            if key > threshold
        ]
        bulk.merge_columns(
            [ident for ident, _ in cand],
            [1.0] * len(cand),
            [key for _, key in cand],
        )
        for ident, key in cand:
            seq.add(Item(ident, 1.0), key)
        assert sorted(
            (item.ident, key) for item, key in bulk.entries()
        ) == sorted((item.ident, key) for item, key in seq.entries())
        assert bulk.threshold == seq.threshold

    def test_boundary_ties_fall_back_exactly(self):
        bulk = TopKeySample(2)
        seq = TopKeySample(2)
        for sample in (bulk, seq):
            sample.add(Item(0, 1.0), 5.0)
            sample.add(Item(1, 1.0), 7.0)
        bulk.merge_columns([2, 3], [1.0, 1.0], [5.0 + 1e-9, 5.0 + 1e-9])
        seq.add(Item(2, 1.0), 5.0 + 1e-9)
        seq.add(Item(3, 1.0), 5.0 + 1e-9)
        assert bulk.threshold == seq.threshold
        assert {i.ident for i, _ in bulk.entries()} == {
            i.ident for i, _ in seq.entries()
        }

    def test_sorted_view_cached_per_mutation_epoch(self):
        sample = TopKeySample(4)
        for i in range(4):
            sample.add(Item(i, 1.0), float(i + 1))
        first = sample._sorted_view()
        assert sample._sorted_view() is first  # no re-sort between mutations
        assert sample.entries() is not first  # callers get their own copy
        sample.add(Item(9, 1.0), 10.0)
        assert sample._sorted is None  # mutation invalidates
        assert [i.ident for i in sample.items()] == [9, 3, 2, 1]
        # rejected insert (below threshold) does not invalidate the cache
        cached = sample._sorted_view()
        assert sample.add(Item(5, 1.0), 0.5) is not None
        assert sample._sorted is cached


# ---------------------------------------------------------------------------
# 6. ItemBatch sequence protocol (slices, negative indices)
# ---------------------------------------------------------------------------


class TestItemBatchSequence:
    def _batch(self):
        from repro.runtime.batched import ItemBatch

        source = [Item(i, float(i + 1)) for i in range(10)]
        positions = np.array([2, 4, 6, 8])
        weights = np.array([3.0, 5.0, 7.0, 9.0])
        idents = np.array([2, 4, 6, 8])
        return ItemBatch(source, positions, weights, idents)

    def test_negative_indices(self):
        batch = self._batch()
        assert batch[-1] == Item(8, 9.0)
        assert batch[-4] == batch[0] == Item(2, 3.0)

    def test_out_of_range_raises(self):
        batch = self._batch()
        with pytest.raises(IndexError):
            batch[4]
        with pytest.raises(IndexError):
            batch[-5]

    def test_slicing_keeps_columns_aligned(self):
        batch = self._batch()
        view = batch[1:3]
        assert list(view) == [Item(4, 5.0), Item(6, 7.0)]
        assert view.weights.tolist() == [5.0, 7.0]
        assert view.idents.tolist() == [4, 6]
        assert list(batch[::-2]) == [Item(8, 9.0), Item(4, 5.0)]
        assert list(batch[2:]) == [Item(6, 7.0), Item(8, 9.0)]

    def test_sequence_mixin_methods(self):
        batch = self._batch()
        assert Item(6, 7.0) in batch
        assert batch.index(Item(4, 5.0)) == 1
        assert list(reversed(batch)) == list(batch)[::-1]


# ---------------------------------------------------------------------------
# 7. Numpy-free fallback (simulated)
# ---------------------------------------------------------------------------


class TestScalarFallback:
    def _patch_numpy_away(self, monkeypatch):
        import repro.core.site as site_mod
        import repro.query.driver as driver_mod
        import repro.runtime.batched as batched_mod
        import repro.runtime.columnar as columnar_mod
        import repro.stream.item as item_mod

        for mod in (site_mod, driver_mod, batched_mod, columnar_mod, item_mod):
            monkeypatch.setattr(mod, "_np", None)

    def _fingerprint(self, stream, engine, seed=2019):
        proto, counters = _swor_run(stream, engine, seed=seed)
        return _fingerprint(proto, counters)

    def test_columnar_scalar_fallback_bs1_matches_reference(self, monkeypatch):
        stream = round_robin(zipf_stream(5000, random.Random(1234), alpha=1.3), 8)
        reference = self._fingerprint(stream, None)
        self._patch_numpy_away(monkeypatch)
        fallback = self._fingerprint(stream, ColumnarEngine(batch_size=1))
        assert fallback == reference

    def test_columnar_fallback_matches_batched_fallback(self, monkeypatch):
        stream = round_robin(zipf_stream(5000, random.Random(77), alpha=1.3), 8)
        self._patch_numpy_away(monkeypatch)
        assert self._fingerprint(stream, "columnar") == self._fingerprint(
            stream, "batched"
        )


# ---------------------------------------------------------------------------
# 8. Multi-query driver columnar mode
# ---------------------------------------------------------------------------


class TestDriverColumnarMode:
    def test_fused_columnar_bit_identical(self):
        from repro.query import (
            MultiQueryDriver,
            QuantileQuery,
            QueryCatalog,
            SubsetSumQuery,
            query_seed,
        )

        items = zipf_stream(20_000, random.Random(0), alpha=1.2)
        stream = round_robin(items, 16)
        queries = [
            SubsetSumQuery("total", sample_size=32),
            SubsetSumQuery(
                "evens",
                predicate=lambda item: item.ident % 2 == 0,
                sample_size=32,
            ),
            QuantileQuery("q", qs=(0.5,), sample_size=32),
        ]

        def run(engine):
            driver = MultiQueryDriver(
                QueryCatalog(list(queries)), num_sites=16, seed=5, engine=engine
            )
            driver.run(stream)
            return {
                q.name: (
                    driver[q.name].protocol.sample_with_keys(),
                    driver[q.name].counters.snapshot(),
                )
                for q in queries
            }

        batched = run("batched")
        columnar = run("columnar")
        assert columnar == batched
        # ... and each matches its standalone columnar run.
        for name, (sample, snapshot) in columnar.items():
            proto = DistributedWeightedSWOR(
                SworConfig(num_sites=16, sample_size=32),
                seed=query_seed(5, name),
                engine="columnar",
            )
            counters = proto.run(stream)
            assert proto.sample_with_keys() == sample
            assert counters.snapshot() == snapshot


# ---------------------------------------------------------------------------
# 9. Window grouping (counting sort vs a stable comparison sort)
# ---------------------------------------------------------------------------


def _stable_sort_grouping(sites, lo, hi):
    """Reference grouping: Python's stable sort of the window's rows by
    site — the result the counting sort must reproduce exactly."""
    column = sites.tolist()
    positions = sorted(range(lo, hi), key=column.__getitem__)
    runs = {}
    for j, row in enumerate(positions):
        runs.setdefault(column[row], [j, j])[1] = j + 1
    site_ids = sorted(runs)
    return (
        np.asarray(positions, dtype=np.intp),
        site_ids,
        [runs[s][0] for s in site_ids],
        [runs[s][1] for s in site_ids],
    )


class TestWindowGrouping:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # Largest site id: straddles the uint8 / uint16 / int64 key widths.
        top=st.sampled_from([0, 1, 63, 255, 256, 65535, 65536, 70_000]),
        n=st.integers(0, 700),
        skewed=st.booleans(),
    )
    def test_equals_stable_sort(self, seed, top, n, skewed):
        from repro.runtime.batched import window_order

        rng = np.random.default_rng(seed)
        if skewed:
            sites = np.minimum(rng.zipf(1.3, n) - 1, top)
        else:
            sites = rng.integers(0, top + 1, n)
        sites = sites.astype(np.int64)
        lo = int(rng.integers(0, n + 1))
        hi = int(rng.integers(lo, n + 1))
        if hi > lo:
            sites[rng.integers(lo, hi)] = top
        positions, site_ids, starts, ends = window_order(sites, lo, hi)
        expected = _stable_sort_grouping(sites, lo, hi)
        assert positions.tolist() == expected[0].tolist()
        assert (site_ids, starts, ends) == expected[1:]
        assert all(type(s) is int for s in site_ids + starts + ends)

    @pytest.mark.parametrize("engine", ["batched", "columnar"])
    @pytest.mark.parametrize("k", [8, 300])
    def test_engines_match_stable_sort_grouping(self, monkeypatch, engine, k):
        """Samples and counters are those of the stable comparison sort
        the counting sort replaced (k=300 takes the 16-bit key path)."""
        import repro.runtime.batched as batched_mod
        import repro.runtime.columnar as columnar_mod

        items = zipf_stream(20_000, random.Random(k), alpha=1.2)
        stream = uniform_random(items, k, random.Random(k + 1))
        fast = _fingerprint(*_swor_run(stream, engine, sites=k))
        for mod in (batched_mod, columnar_mod):
            monkeypatch.setattr(mod, "window_order", _stable_sort_grouping)
        assert _fingerprint(*_swor_run(stream, engine, sites=k)) == fast
