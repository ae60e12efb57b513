"""Columnar runtime tests: zero-object streams, packs, and the engine.

Eight contracts pin the columnar data plane:

1. **Stream round-trip** — ``ColumnarStream`` <-> ``DistributedStream``
   converts exactly (idents and weights bit for bit), with a lazy
   ``items`` view that never materializes the stream;
2. **Pack accounting** — a ``MessagePack``'s word/count accounting
   equals the sum over the individual messages it replaces, exactly;
3. **Engine bit-parity** — the columnar engine's pack folds reproduce
   per-message delivery (a traced run) bit for bit — samples *and*
   counters — on both stream representations and across the
   coordinator's bulk/replay paths, and at batch size 1 it is the
   reference engine exactly;
4. **Ingest domain** — identifiers that are not int64-representable
   are rejected by the columnar plane before any site runs, and a
   weight outside ``(0, MAX_WEIGHT]`` raises one error under every
   protocol, engine and ``process()`` call;
5. **Coordinator pack paths** — each pack fold equals sequential
   delivery, including level releases and epoch crossings folded in
   epoch segments, and the query view's tie order is the stable sort
   of ``S`` then the pending entries;
6. **Bulk sample merge** — ``TopKeySample.fold_selected`` over the
   fused kernel's selection equals sequential ``add`` calls (including
   the tie fallback and tie-rich key pools), snapshots round-trip, and
   the sorted query view is cached per mutation epoch;
7. **Multi-query driver** — same-config SWOR queries match standalone
   columnar runs;
8. **Window grouping** — the engines' counting-sort ``window_order``
   equals a stable comparison sort of the window's rows by site, at
   every key width, and engine and driver runs are unchanged under
   that oracle.
"""

from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import (
    ConfigurationError,
    InvalidWeightError,
    ProtocolViolationError,
)
from repro.common.rng import MAX_WEIGHT
from repro.common.words import words_for_value, words_for_values_array
from repro.core import (
    DistributedUnweightedSWOR,
    DistributedWeightedSWOR,
    SworConfig,
)
from repro.core.coordinator import SworCoordinator
from repro.core.levels import levels_of_array
from repro.core.sample_set import TopKeySample
from repro.kernels import swor_fold_regulars
from repro.net.counters import MessageCounters
from repro.net.messages import EARLY, Message, MessagePack, REGULAR
from repro.net.tracing import MessageTrace
from repro.runtime import ColumnarEngine, get_engine
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

import test_columnar_protocols as protocols

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


def _traced_swor_run(stream, engine, seed=7, sites=8, sample=8):
    """A run whose network folds every pack message by message (a
    traced network expands packs through ``on_message``)."""
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=sites, sample_size=sample),
        seed=seed,
        engine=engine,
    )
    trace = MessageTrace.attach(proto.network)
    counters = proto.run(stream)
    return proto, counters, trace


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

    def test_non_integer_idents_rejected(self):
        stream = DistributedStream([Item("a", 2.0)], [0], 1)  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError, match="engine='reference'"):
            stream.arrays()
        with pytest.raises(ConfigurationError):
            ColumnarStream.from_distributed(stream)

    def test_float_idents_rejected_not_truncated(self):
        # np.fromiter would silently truncate 2.5 -> 2; arrays() must
        # reject non-integral idents instead.
        stream = DistributedStream([Item(2.5, 2.0)], [0], 1)  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError):
            stream.arrays()


class TestIntegerColumns:
    """Idents and site indices enter as int64 integers or not at all:
    ``check_int_column`` rejects what a cast would truncate or wrap,
    and ``DistributedStream`` rejects a non-integer site index."""

    BAD = {
        "float-idents": ([0.5, 1.2, 2.0], [0, 1, 2]),
        "float-sites": ([0, 1, 2], [0.5, 1.7, 2.2]),
        "uint64-ident-2**63": (np.array([2**63, 1, 2], dtype=np.uint64), [0, 1, 2]),
        "nan-ident": ([math.nan, 1, 2], [0, 1, 2]),
        "python-int-2**63": ([2**63], [0]),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_columnar_stream_rejects(self, case):
        idents, sites = self.BAD[case]
        with pytest.raises(ConfigurationError, match="must be integers that fit int64"):
            ColumnarStream(idents, [1.0] * len(sites), sites, 3)

    def test_in_range_integers_accepted(self):
        stream = ColumnarStream(
            np.array([0, 2**63 - 1], dtype=np.uint64),
            [1.0, 2.0],
            np.array([True, False]),
            2,
        )
        assert stream.idents.tolist() == [0, 2**63 - 1]
        assert stream.sites.tolist() == [1, 0]
        assert stream.idents.dtype == stream.sites.dtype == np.int64
        assert ColumnarStream([-(2**63)], [1.0], [0], 1).idents.tolist() == [-(2**63)]
        assert len(ColumnarStream([], [], [], 1)) == 0

    def test_int64_columns_are_not_copied(self):
        idents = np.arange(4, dtype=np.int64)
        sites = idents % 2
        stream = ColumnarStream(idents, np.ones(4), sites, 2)
        assert stream.idents is idents and stream.sites is sites

    def test_distributed_stream_rejects_float_sites(self):
        items = [Item(i, 1.0) for i in range(8)]
        with pytest.raises(ConfigurationError, match="site index 0.5 is not an integer"):
            DistributedStream(items, [i % 4 + 0.5 for i in range(8)], 4)
        # numpy integer sites stay legal.
        DistributedStream(items, list(np.arange(8) % 4), 4)

    @pytest.mark.parametrize("engine", ["reference", "columnar", "sharded"])
    def test_every_engine_rejects_float_sites_before_any_site_runs(self, engine):
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=4, sample_size=2),
            seed=1,
            engine=get_engine(engine, workers=2) if engine == "sharded" else engine,
        )
        items = [Item(i, 1.0 + i) for i in range(40)]
        with pytest.raises(ConfigurationError):
            proto.run(DistributedStream(items, [i % 4 + 0.5 for i in range(40)], 4))
        assert [site.items_seen for site in proto.sites] == [0] * 4
        assert proto.counters.total == 0


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
# 3. Engine bit-parity: pack folds vs per-message delivery
# ---------------------------------------------------------------------------


class TestColumnarEngineParity:
    @pytest.mark.parametrize("seed,k,s,partition", [
        (7, 8, 8, round_robin),
        (2019, 32, 16, round_robin),
        (3, 5, 4, heavy_to_one_site),
    ])
    def test_untraced_equals_traced(self, seed, k, s, partition):
        items = zipf_stream(40_000, random.Random(seed), alpha=1.25)
        stream = partition(items, k)
        proto, counters, _ = _traced_swor_run(stream, "columnar", seed, k, s)
        columnar = _fingerprint(*_swor_run(stream, "columnar", seed, k, s))
        assert columnar == _fingerprint(proto, counters)

    def test_columnar_stream_input_identical(self):
        stream = round_robin(zipf_stream(25_000, random.Random(1), alpha=1.2), 8)
        columnar = ColumnarStream.from_distributed(stream)
        a = _fingerprint(*_swor_run(stream, "columnar"))
        b = _fingerprint(*_swor_run(columnar, "columnar"))
        assert a == b

    def test_generic_site_default_on_columns(self, monkeypatch):
        """A site without a columnar hook runs through the default
        per-item ``on_columns``: at batch size 1 bit-identical to the
        reference engine, and at the default batch size it still sees
        every arrival."""
        from repro.core.unweighted import _UnweightedSite
        from repro.runtime import SiteAlgorithm

        items = [Item(i, 1.0) for i in range(8000)]
        stream = round_robin(items, 8)

        def run(engine):
            proto = DistributedUnweightedSWOR(8, 8, seed=11, engine=engine)
            counters = proto.run(stream)
            seen = sum(site.items_seen for site in proto.sites)
            return (
                counters.snapshot(),
                tuple(item.ident for item in proto.sample()),
                seen,
            )

        reference = run(None)
        monkeypatch.setattr(
            _UnweightedSite, "on_columns", SiteAlgorithm.on_columns
        )
        assert run(ColumnarEngine(batch_size=1)) == reference
        counters, sample, seen = run("columnar")
        assert seen == 8000 and len(sample) == 8
        assert counters["total"] > 0

    def test_checkpoints_fire_exactly_and_accumulate(self):
        stream = round_robin(zipf_stream(9000, random.Random(4), alpha=1.3), 8)
        seen_c = []
        proto_c, _ = _swor_run(
            stream, "columnar",
            checkpoints=[1, 300, 8191, 9000],
            on_checkpoint=seen_c.append,
        )
        assert seen_c == [1, 300, 8191, 9000]
        # cumulative clock across run() calls on a reused network
        more = round_robin(zipf_stream(1000, random.Random(5), alpha=1.3), 8)
        seen2 = []
        proto_c.run(more, checkpoints=[9500], on_checkpoint=seen2.append)
        assert seen2 == [9500]

    def test_tracing_sees_every_message_in_causal_order(self):
        """A traced columnar run records each message a pack stands
        for, in delivery order, and changes neither sample nor counters."""
        stream = round_robin(zipf_stream(6000, random.Random(9), alpha=1.3), 8)
        proto, counters, trace = _traced_swor_run(stream, "columnar")
        up = [e for e in trace.events if e.direction == "up"]
        down = [e for e in trace.events if e.direction == "down"]
        assert len(up) == counters.upstream
        assert len(down) * 8 == counters.downstream
        assert [e.seq for e in trace.events] == list(range(len(trace.events)))
        # Idents are arrival indices: each site's earlies, and each
        # site's regulars, reach the coordinator in arrival order.
        for site in range(8):
            for kind in ("early", "regular"):
                idents = [
                    e.payload[0] for e in up
                    if e.endpoint == site and e.kind == kind
                ]
                assert idents == sorted(set(idents))
        assert _fingerprint(proto, counters) == _fingerprint(
            *_swor_run(stream, "columnar")
        )

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
        live in level 0 and must stay EARLY — the heavy-floor shortcut
        proves nothing when the lowest open level is 0, in the window
        pass and in a site's own ``on_columns`` alike."""
        from repro.core import SworSite
        from repro.net.messages import LEVEL_SATURATED
        from repro.runtime.columnar import GroupedWindow

        config = SworConfig(num_sites=4, sample_size=2)  # r = 2
        shared = SworSite(0, config, np.random.default_rng(1))
        solo = SworSite(0, config, np.random.default_rng(1))
        for site in (shared, solo):
            site.on_control(Message(LEVEL_SATURATED, (1,)))  # bit 0 stays clear
        weights = np.array([0.5, 2.0, 4.0, 0.9])  # levels 0, 1, 2, 0
        idents = np.arange(4, dtype=np.int64)
        window = GroupedWindow(idents, weights, [0], [0], [4])
        prep = shared.prepare_window(window, [(0, shared, 0, 4)])
        with_pass = prep.pack
        without_pass = solo.on_columns(idents, weights)
        assert with_pass.messages() == without_pass.messages()
        assert with_pass.num_early == 3  # only the saturated level-1 item filters
        assert shared._gen.bit_generator.state == solo._gen.bit_generator.state

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
        proto, counters, _ = _traced_swor_run(stream, "columnar", seed=5, sample=4)
        columnar = _fingerprint(*_swor_run(stream, "columnar", seed=5, sample=4))
        assert columnar == _fingerprint(proto, counters)

    def test_coordinator_stats_match_on_replay_paths(self):
        """early_received / regular_received / levels state agree with
        per-message delivery (accepted-counts may differ only on the
        bulk fast path, which is documented)."""
        stream = round_robin(zipf_stream(30_000, random.Random(6), alpha=1.2), 8)
        proto_b, _, _ = _traced_swor_run(stream, "columnar", seed=6)
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
# 4. Ingest domain: the columnar plane needs int64 idents
# ---------------------------------------------------------------------------


class TestNonIntegerIdents:
    """Identifiers that are not int64-representable fail the same way
    on every columnar-plane entry point — before any site runs — and
    still replay under the reference engine."""

    STREAMS = {
        "str": lambda: DistributedStream(
            [Item("a", 2.0), Item("b", 3.0)], [0, 1], 2  # type: ignore[arg-type]
        ),
        "float": lambda: DistributedStream(
            [Item(2.5, 2.0), Item(3, 3.0)], [0, 1], 2  # type: ignore[arg-type]
        ),
        # Integral, but one past int64's range.
        "int-overflow": lambda: DistributedStream(
            [Item(2**63, 2.0), Item(3, 3.0)], [0, 1], 2
        ),
    }

    @pytest.mark.parametrize("idents", sorted(STREAMS))
    @pytest.mark.parametrize("engine", ["columnar", "sharded"])
    def test_engines_reject_before_any_site_runs(self, idents, engine):
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=2, sample_size=2),
            seed=1,
            engine=get_engine(engine, workers=2)
            if engine == "sharded"
            else engine,
        )
        with pytest.raises(ConfigurationError, match="engine='reference'"):
            proto.run(self.STREAMS[idents]())
        assert [site.items_seen for site in proto.sites] == [0, 0]
        assert proto.counters.total == 0
        assert proto.network.items_processed == 0

    @pytest.mark.parametrize("idents", sorted(STREAMS))
    def test_driver_rejects_before_any_site_runs(self, idents):
        from repro.query import MultiQueryDriver, QueryCatalog, SubsetSumQuery

        driver = MultiQueryDriver(
            QueryCatalog([SubsetSumQuery("q", sample_size=2)]),
            num_sites=2,
            seed=1,
        )
        with pytest.raises(ConfigurationError, match="engine='reference'"):
            driver.run(self.STREAMS[idents]())
        assert driver.items_processed == 0
        assert driver["q"].counters.total == 0

    @pytest.mark.parametrize("idents", sorted(STREAMS))
    def test_reference_still_runs(self, idents):
        stream = self.STREAMS[idents]()
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=2, sample_size=2), seed=1
        )
        proto.run(stream)
        assert sorted(item.ident for item in proto.sample()) == sorted(
            item.ident for item in stream.items
        )


#: Weights outside the declared domain ``(0, MAX_WEIGHT]``: not
#: positive and finite, or finite but above the ceiling that keeps
#: every key finite.
BAD_WEIGHTS = [
    float("nan"),
    -1.0,
    0.0,
    float("inf"),
    1e308,
    math.nextafter(MAX_WEIGHT, math.inf),
]


def _weight_error(bad):
    """The ingest error's message for ``bad``, as a regex."""
    if 0.0 < bad < math.inf:
        return re.escape(f"weight must be at most MAX_WEIGHT = 2**959: {bad}")
    return re.escape(f"weight must be positive and finite: {bad}")


class TestInvalidWeights:
    """A weight outside ``(0, MAX_WEIGHT]`` fails with one error under
    every protocol and engine: at ingest under the columnar and sharded
    engines — including a steady-state window, where only weights above
    the heavy floor reach a level computation, and before the sharded
    pool spawns — and at the offending arrival under ``reference`` and
    ``process()``.  A failed run is rewound to its start under every
    engine."""

    @staticmethod
    def _stream(bad):
        rng = random.Random(4)
        items = [Item(i, rng.uniform(1.0, 100.0)) for i in range(40_000)]
        items[30_000] = Item(30_000, bad)
        return round_robin(items, 4)

    @staticmethod
    def _raises(build, engine, stream, bad):
        """Run ``build(runner)`` over ``stream`` under ``engine``: it
        must raise the ingest error, under the columnar plane before any
        site runs and before any worker spawns, and leave the network
        at its run-start state."""
        import glob
        import multiprocessing

        shm_before = set(glob.glob("/dev/shm/psm_*"))
        runner = (
            get_engine("sharded", workers=2) if engine == "sharded" else engine
        )
        instance = build(runner)
        with pytest.raises(InvalidWeightError, match=_weight_error(bad)):
            instance.run(stream)
        network = getattr(instance, "protocol", instance).network
        assert network.items_processed == 0
        if engine == "sharded":
            assert runner._pool is None  # failed before spawning workers
            assert multiprocessing.active_children() == []
            assert set(glob.glob("/dev/shm/psm_*")) <= shm_before

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    def test_columnar_stream_rejects_at_construction(self, bad):
        message = _weight_error(bad)
        with pytest.raises(InvalidWeightError, match=message):
            ColumnarStream([0, 1, 2], [1.0, bad, 0.5], [0, 0, 1], 2)
        stream = DistributedStream([Item(0, 1.0), Item(1, bad)], [0, 1], 2)
        with pytest.raises(InvalidWeightError, match=message):
            stream.arrays()
        with pytest.raises(InvalidWeightError, match=message):
            ColumnarStream.from_distributed(stream)

    def test_sub_one_weights_stay_legal(self):
        stream = ColumnarStream([0, 1], [0.25, 1e-300], [0, 1], 2)
        assert stream.weights.tolist() == [0.25, 1e-300]

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    @pytest.mark.parametrize("engine", ["reference", "columnar", "sharded"])
    def test_every_engine_raises(self, bad, engine):
        self._raises(
            lambda runner: DistributedWeightedSWOR(
                SworConfig(num_sites=4, sample_size=4), seed=3, engine=runner
            ),
            engine,
            self._stream(bad),
            bad,
        )

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    @pytest.mark.parametrize("engine", ["reference", "columnar", "sharded"])
    @pytest.mark.parametrize("name", sorted(protocols.PROTOCOLS))
    def test_every_protocol_raises(self, name, engine, bad):
        items = [Item(i, 1.0 + i % 7) for i in range(48)]
        items[40] = Item(40, bad)
        build = protocols.PROTOCOLS[name][0]
        self._raises(
            lambda runner: build(runner, None),
            engine,
            round_robin(items, 16),
            bad,
        )

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    @pytest.mark.parametrize("name", sorted(protocols.PROTOCOLS))
    def test_every_protocols_process_raises(self, name, bad):
        instance = protocols.PROTOCOLS[name][0]("reference", None)
        instance.process(0, Item(0, 2.0))
        network = getattr(instance, "protocol", instance).network
        counters = network.counters.snapshot()
        with pytest.raises(InvalidWeightError, match=_weight_error(bad)):
            instance.process(1, Item(1, bad))
        assert network.items_processed == 1
        assert network.counters.snapshot() == counters


# ---------------------------------------------------------------------------
# 5. Coordinator pack paths (columnar folds vs sequential delivery)
# ---------------------------------------------------------------------------


def twin_coordinators(k=4, s=3, saturation=4, seed=42):
    """Two SWOR coordinators with the same config and RNG seed."""
    config = SworConfig(
        num_sites=k,
        sample_size=s,
        # saturation_size is derived as round(factor * r * s).
        level_set_factor=saturation / (max(2.0, k / s) * s),
    )
    assert config.saturation_size == saturation
    return (
        SworCoordinator(config, np.random.default_rng(seed)),
        SworCoordinator(config, np.random.default_rng(seed)),
    )


def coordinator_pack(coordinator, early_weights=(), regulars=()):
    """A pack of earlies (idents 0, 1, ...; levels as the site computes
    them) and ``(ident, weight, key)`` regulars."""
    columns = [None, None, None]
    if len(early_weights):
        weights = np.asarray(early_weights, dtype=np.float64)
        columns = [
            np.arange(len(weights), dtype=np.int64),
            weights,
            levels_of_array(weights, coordinator.config.r),
        ]
    if len(regulars):
        idents, weights, keys = zip(*regulars)
        columns += [
            np.array(idents, dtype=np.int64),
            np.array(weights, dtype=np.float64),
            np.array(keys, dtype=np.float64),
        ]
    return MessagePack(*columns)


def assert_pack_equals_messages(bulk, seq, pack):
    """``bulk`` folds ``pack`` whole and ``seq`` gets its messages one
    by one: responses (kind, payload and order), the query view, the
    exact receipt counters, the RNG position and the level and epoch
    state must agree.  Returns the responses."""
    responses_bulk = bulk.on_message_pack(0, pack)
    responses_seq = []
    for message in pack.messages():
        responses_seq.extend(seq.on_message(0, message))
    assert [(d, m.kind, m.payload) for d, m in responses_bulk] == [
        (d, m.kind, m.payload) for d, m in responses_seq
    ]
    assert bulk.sample_with_keys() == seq.sample_with_keys()
    for counter in ("early_received", "regular_received", "early_for_saturated"):
        assert getattr(bulk, counter) == getattr(seq, counter), counter
    assert bulk._gen.bit_generator.state == seq._gen.bit_generator.state
    assert bulk.levels.snapshot_state() == seq.levels.snapshot_state()
    assert bulk.epochs.snapshot_state() == seq.epochs.snapshot_state()
    return [(m.kind, m.payload) for _, m in responses_bulk]


#: A small key pool, so equal regular keys (at and away from the cut,
#: and at epoch floors) are common.
PACK_KEYS = st.sampled_from([0.5, 1.0, 2.0, 2.0, 3.0, 4.0, 16.0, 64.0])

#: Tier-1 examples of the pack property; the stress tier runs 50 times
#: as many (``tests/test_stress.py``).
PACK_EXAMPLES = 40


@st.composite
def pack_sequences(draw):
    """A coordinator config and a few packs of earlies over three
    levels and regulars with tied keys."""
    s = draw(st.integers(min_value=2, max_value=6))
    saturation = draw(st.integers(min_value=2, max_value=8))
    packs = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from([1.0, 2.5, 5.0, 40.0]), max_size=12),
                st.lists(PACK_KEYS, max_size=10),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return s, saturation, packs


def check_pack_sequence(case):
    """Every pack of the sequence folds as its messages would."""
    s, saturation, packs = case
    bulk, seq = twin_coordinators(k=4, s=s, saturation=saturation)
    ident = 1000
    for early_weights, keys in packs:
        regulars = []
        for key in keys:
            regulars.append((ident, 1.0, key))
            ident += 1
        pack = coordinator_pack(bulk, early_weights, regulars)
        if len(pack):
            assert_pack_equals_messages(bulk, seq, pack)


class TestCoordinatorPackPaths:
    def test_saturating_pack_takes_replay_path(self):
        """A pack whose earlies saturate a level broadcasts at the
        exact release point; the earlies after it, for the level just
        saturated, compete for the sample directly."""
        bulk, seq = twin_coordinators(saturation=3)
        pack = coordinator_pack(
            bulk, np.ones(5), [(10, 1.0, 0.25), (11, 1.0, 9.0)]
        )  # all level 0 -> saturates at the 3rd
        out = assert_pack_equals_messages(bulk, seq, pack)
        assert out[0] == ("level_saturated", (0,))
        assert bulk.early_for_saturated == seq.early_for_saturated == 2

    def test_epoch_crossing_pack_takes_replay_path(self):
        bulk, seq = twin_coordinators(s=2, saturation=4)
        # Pre-saturate level 0 so regulars flow; huge keys force the
        # threshold through several epoch brackets inside one pack.
        assert_pack_equals_messages(bulk, seq, coordinator_pack(bulk, np.ones(4)))
        pack = coordinator_pack(
            bulk, regulars=[(10, 1.0, 5.0), (11, 1.0, 40.0), (12, 1.0, 600.0)]
        )
        assert_pack_equals_messages(bulk, seq, pack)
        assert bulk.epochs.epoch == seq.epochs.epoch

    def test_quiet_pack_takes_bulk_path(self):
        bulk, seq = twin_coordinators()
        pack = coordinator_pack(
            bulk, [1.0, 2.0], [(7, 3.0, 0.5), (8, 4.0, 0.25)]
        )
        assert assert_pack_equals_messages(bulk, seq, pack) == []
        assert bulk.levels.pending_count() == 2

    def test_release_crosses_several_epoch_brackets(self):
        """A release into an empty sample announces at three separate
        entries; the segmented fold emits each where sequential offers
        do."""
        bulk, seq = twin_coordinators(s=2, saturation=8, seed=4)
        out = assert_pack_equals_messages(
            bulk, seq, coordinator_pack(bulk, np.full(8, 100.0))
        )
        assert out[0] == ("level_saturated", (6,))
        assert [kind for kind, _ in out[1:]].count("epoch_update") >= 2

    def test_two_levels_saturate_in_one_pack(self):
        bulk, seq = twin_coordinators(s=2, saturation=3, seed=5)
        weights = [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0]  # levels 0 and 1
        out = assert_pack_equals_messages(
            bulk,
            seq,
            coordinator_pack(bulk, weights, [(20, 1.0, 2.0), (21, 1.0, 7.5)]),
        )
        saturations = [payload for kind, payload in out if kind == "level_saturated"]
        assert saturations == [(0,), (1,)]
        assert bulk.early_for_saturated == 2

    def test_release_into_underfull_sample(self):
        """Releases of 3 into a sample of 5: the first leaves ``S``
        underfull (threshold 0), the second fills it mid-release."""
        bulk, seq = twin_coordinators(s=5, saturation=3, seed=6)
        assert_pack_equals_messages(bulk, seq, coordinator_pack(bulk, np.ones(3)))
        assert len(bulk.sample_set) == 3 and bulk.threshold == 0.0
        assert_pack_equals_messages(
            bulk, seq, coordinator_pack(bulk, np.full(4, 3.0))
        )
        assert bulk.sample_set.full and bulk.early_for_saturated == 1

    def test_regular_pack_crosses_epochs_at_several_entries(self):
        bulk, seq = twin_coordinators(s=2, saturation=4)
        keys = [1.5, 1.25, 3.0, 0.5, 9.0, 40.0, 2.0, 41.0]
        out = assert_pack_equals_messages(
            bulk,
            seq,
            coordinator_pack(
                bulk, regulars=[(i, 1.0, key) for i, key in enumerate(keys)]
            ),
        )
        assert [payload for _, payload in out] == [(1.0,), (2.0,), (8.0,), (32.0,)]

    @settings(max_examples=PACK_EXAMPLES, deadline=None)
    @given(case=pack_sequences())
    def test_packs_equal_messages_property(self, case):
        check_pack_sequence(case)

    @pytest.mark.parametrize("batch_size", [1024, None])
    def test_hh_release_across_epochs_equals_traced_run(self, monkeypatch, batch_size):
        """End to end: an HH stream whose first release announces four
        epochs.  The untraced columnar run folds it in epoch segments;
        a traced network, at the same schedule, offers every entry one
        by one — the per-message oracle."""
        from repro import ResidualHeavyHitterTracker

        releases = []  # (folded in epoch segments, EPOCH_UPDATEs) per release
        early_core = SworCoordinator._early_core

        def spy(coordinator, ident, weight, level, key, fold=False):
            out = early_core(coordinator, ident, weight, level, key, fold)
            if out and out[0][1].kind == "level_saturated":
                releases.append((fold, sum(m.kind == "epoch_update" for _, m in out)))
            return out

        monkeypatch.setattr(SworCoordinator, "_early_core", spy)
        gen = np.random.Generator(np.random.PCG64(0))
        weights = np.minimum(gen.random(20_000) ** (-1.0 / 1.2), 1e6)
        share = np.arange(1, 17, dtype=np.float64) ** -1.2
        sites = gen.choice(16, size=20_000, p=share / share.sum())
        stream = ColumnarStream(np.arange(20_000), weights, sites, 16)

        def run(traced):
            engine = (
                ColumnarEngine() if batch_size is None
                else ColumnarEngine(batch_size=batch_size)
            )
            proto = ResidualHeavyHitterTracker(16, 0.2, seed=3, engine=engine).protocol
            if traced:
                MessageTrace.attach(proto.network)
            proto.run(stream)
            coordinator = proto.coordinator
            return (
                _fingerprint(proto, proto.counters),
                coordinator.early_received,
                coordinator.regular_received,
                coordinator.early_for_saturated,
                coordinator._gen.bit_generator.state,
                coordinator.levels.snapshot_state(),
                coordinator.epochs.snapshot_state(),
            )

        untraced = run(False)
        assert max(n for folded, n in releases if folded) >= 2
        del releases[:]
        assert run(True) == untraced
        assert releases and not any(folded for folded, _ in releases)

    def test_early_for_disabled_level_sets_raises(self):
        config = SworConfig(num_sites=4, sample_size=3, level_sets_enabled=False)
        coord = SworCoordinator(config, np.random.default_rng(0))
        pack = MessagePack(
            np.array([1], dtype=np.int64), np.array([2.0]),
            np.array([0], dtype=np.int64),
        )
        with pytest.raises(ProtocolViolationError):
            coord.on_message_pack(0, pack)


class TestQueryViewTies:
    """``sample_with_keys`` ranks ``S``'s sorted view, then the pending
    entries in bucket order, by one stable sort on decreasing key."""

    @staticmethod
    def _concatenate_then_sort(coordinator):
        entries = coordinator.sample_set.entries() + coordinator.levels.pending_entries()
        entries.sort(key=lambda pair: -pair[1])
        return entries[: coordinator.config.sample_size]

    def _coordinator(self, s=3):
        config = SworConfig(num_sites=4, sample_size=s, level_set_factor=100.0)
        return SworCoordinator(config, np.random.default_rng(0))

    def test_ties_within_s_across_s_and_pending_and_across_levels(self):
        coord = self._coordinator(s=4)
        for ident, key in [(1, 2.0), (2, 5.0), (3, 2.0)]:
            coord.on_message(0, Message(REGULAR, (ident, 1.0, key)))
        coord.levels.add(10, 3.0, 5.0)  # level 1, ties S's 5.0
        coord.levels.add(11, 1.0, 2.0)  # level 0, ties S's 2.0
        coord.levels.add(12, 3.0, 2.0)  # level 1 again, ties both
        coord.levels.add(13, 9.0, 5.0)  # level 3
        view = coord.sample_with_keys()
        assert view == self._concatenate_then_sort(coord)
        assert [(item.ident, key) for item, key in view] == [
            (2, 5.0), (10, 5.0), (13, 5.0), (1, 2.0)
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        released=st.lists(PACK_KEYS, max_size=8),
        pending=st.lists(
            st.tuples(st.sampled_from([1.0, 3.0, 9.0]), PACK_KEYS), max_size=12
        ),
        s=st.integers(min_value=1, max_value=6),
    )
    def test_equals_concatenate_then_stable_sort(self, released, pending, s):
        coord = self._coordinator(s=s)
        for ident, key in enumerate(released):
            coord.on_message(0, Message(REGULAR, (ident, 1.0, key)))
        for ident, (weight, key) in enumerate(pending, start=100):
            coord.levels.add(ident, weight, key)
        assert coord.sample_with_keys() == self._concatenate_then_sort(coord)


# ---------------------------------------------------------------------------
# 6. TopKeySample bulk merge + cached sorted view
# ---------------------------------------------------------------------------


def _bulk_commit(sample, idents, keys):
    """One fused selection over ``sample``'s key column plus the single
    bulk commit — the coordinators' pack fold."""
    idents = np.asarray(idents, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.float64)
    fold = swor_fold_regulars(
        keys, sample.threshold, sample.keys, sample.sample_size
    )
    return sample.fold_selected(idents, np.ones(len(keys)), keys, *fold)


#: A small key pool, so equal keys (at and away from the cut) are common.
TIED_KEYS = st.sampled_from([1.0, 2.0, 2.0 + 1e-9, 3.0])


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
        idents = list(range(half, len(keys)))
        _bulk_commit(bulk, idents, keys[half:])
        for ident, key in zip(idents, keys[half:]):
            seq.add(Item(ident, 1.0), key)
        assert bulk.entries() == seq.entries()
        assert bulk.threshold == seq.threshold

    @settings(max_examples=150, deadline=None)
    @given(
        s=st.integers(min_value=1, max_value=6),
        old=st.lists(TIED_KEYS, max_size=12),
        pack=st.lists(TIED_KEYS, max_size=20),
    )
    def test_bulk_commit_equals_sequential_on_tied_keys(self, s, old, pack):
        bulk = TopKeySample(s)
        seq = TopKeySample(s)
        for i, key in enumerate(old):
            bulk.add(Item(i, 1.0), key)
            seq.add(Item(i, 1.0), key)
        idents = list(range(len(old), len(old) + len(pack)))
        _bulk_commit(bulk, idents, pack)
        for ident, key in zip(idents, pack):
            seq.add(Item(ident, 1.0), key)
        assert bulk.entries() == seq.entries()
        assert bulk.threshold == seq.threshold
        assert len(bulk) == len(seq)
        # Snapshot, mutate, restore: the state compares equal again, and
        # the restored set keeps evicting like the sequential one.
        saved = bulk.snapshot_state()
        bulk.add(Item(-1, 1.0), 4.0)
        assert bulk.snapshot_state() != saved
        bulk.restore_state(saved)
        assert bulk.snapshot_state() == saved
        for sample in (bulk, seq):
            sample.add(Item(-2, 1.0), 2.0)
        assert bulk.entries() == seq.entries()
        assert bulk.threshold == seq.threshold

    def test_boundary_ties_fall_back_exactly(self):
        bulk = TopKeySample(2)
        seq = TopKeySample(2)
        for sample in (bulk, seq):
            sample.add(Item(0, 1.0), 5.0)
            sample.add(Item(1, 1.0), 7.0)
        _bulk_commit(bulk, [2, 3], [5.0 + 1e-9, 5.0 + 1e-9])
        seq.add(Item(2, 1.0), 5.0 + 1e-9)
        seq.add(Item(3, 1.0), 5.0 + 1e-9)
        assert bulk.tie_fallbacks == 1
        assert bulk.threshold == seq.threshold
        assert bulk.entries() == seq.entries()

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
# 7. Multi-query driver columnar mode
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

        columnar = run("columnar")
        # Each same-config SWOR query matches its standalone run.
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
# 8. Window grouping (counting sort vs a stable comparison sort)
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

    @pytest.mark.parametrize("k", [8, 300])
    def test_engine_matches_stable_sort_grouping(self, monkeypatch, k):
        """Samples and counters are those of the stable comparison sort
        the counting sort replaced (k=300 takes the 16-bit key path)."""
        import repro.runtime.columnar as columnar_mod

        items = zipf_stream(20_000, random.Random(k), alpha=1.2)
        stream = uniform_random(items, k, random.Random(k + 1))
        fast = _fingerprint(*_swor_run(stream, "columnar", sites=k))
        monkeypatch.setattr(columnar_mod, "window_order", _stable_sort_grouping)
        assert _fingerprint(*_swor_run(stream, "columnar", sites=k)) == fast

    @pytest.mark.parametrize("k", [8, 300])
    def test_driver_matches_stable_sort_grouping(self, monkeypatch, k):
        """The multi-query driver groups each window through the columnar
        engine's ``group_window``, hence the same ``window_order``; its
        answers and counters are those of the stable comparison sort
        too."""
        import repro.runtime.columnar as columnar_mod
        from repro.query import (
            CountQuery,
            MultiQueryDriver,
            QueryCatalog,
            SubsetSumQuery,
            WeightedMeanQuery,
        )

        items = zipf_stream(20_000, random.Random(k), alpha=1.2)
        stream = uniform_random(items, k, random.Random(k + 1))

        def run():
            driver = MultiQueryDriver(
                QueryCatalog([
                    SubsetSumQuery("total", sample_size=8),
                    CountQuery("count", sample_size=8),
                    WeightedMeanQuery("mean", sample_size=8),
                ]),
                num_sites=k,
                seed=3,
            )
            result = driver.run(stream)
            return (
                driver["total"].protocol.sample_with_keys(),
                result.answers,
                {name: c.snapshot() for name, c in result.counters.items()},
            )

        fast = run()
        windows = []

        def oracle(sites, lo, hi):
            windows.append((lo, hi))
            return _stable_sort_grouping(sites, lo, hi)

        monkeypatch.setattr(columnar_mod, "window_order", oracle)
        assert run() == fast
        assert windows  # MultiQueryDriver grouped through the patched name
