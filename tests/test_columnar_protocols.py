"""Columnar paths for every protocol (SWOR / SWR / unweighted / L1 /
HH) and the driver's ColumnarStream support.

Extends the contracts of ``test_columnar_runtime.py`` to every
protocol:

1. **Engine bit-parity** — for each protocol, the columnar engine's
   pack folds reproduce per-message delivery (a traced run, whose
   network folds every pack through ``on_message``) — samples,
   internal state, *and* message counters — bit for bit, on both
   stream representations, and batch size 1 degenerates to the
   reference engine exactly;
2. **Pack accounting** — kind-parametric packs (``SWR_SAMPLE`` with the
   sampler-index extra column) count exactly like the messages they
   stand for;
3. **Coordinator pack paths** — each coordinator's bulk fold equals
   sequential delivery, including the replay fallback when a broadcast
   (round / epoch) would fire mid-pack;
4. **Driver on ColumnarStream** — the multi-query driver accepts a
   ``ColumnarStream`` directly, with per-query answers bit-identical to
   the same data as a ``DistributedStream``, and its generic columnar
   consumers match standalone columnar runs.
"""

from __future__ import annotations

import random

import pytest

from repro.core import DistributedUnweightedSWOR, DistributedWeightedSWOR, SworConfig
from repro.core.swr import DistributedWeightedSWR, _SwrCoordinator
from repro.core.unweighted import _UnweightedCoordinator
from repro.heavy_hitters import ResidualHeavyHitterTracker, SwrHeavyHitterTracker
from repro.l1 import L1Tracker
from repro.l1.tracker import _L1Coordinator
from repro.net.counters import MessageCounters
from repro.net.messages import Message, MessagePack, REGULAR, SWR_SAMPLE
from repro.net.tracing import MessageTrace
from repro.stream import (
    ColumnarStream,
    heavy_to_one_site,
    round_robin,
    zipf_stream,
)

np = pytest.importorskip("numpy")

#: Batch sizes whose site passes ship multi-entry packs (batch size 1
#: never reaches a pack: every site takes its scalar ``on_item`` path).
PACK_BATCH_SIZES = [64, 1024]


def _stream(n=25_000, k=16, seed=3, alpha=1.2):
    return round_robin(zipf_stream(n, random.Random(seed), alpha=alpha), k)


def _swor_state(proto, counters):
    coord = proto.coordinator
    return (
        counters.snapshot(),
        tuple((i.ident, i.weight, k) for i, k in proto.sample_with_keys()),
        coord.early_received,
        coord.regular_received,
        coord.levels.saturated_levels,
    )


def _swr_state(proto, counters):
    coord = proto.coordinator
    return (
        counters.snapshot(),
        tuple((s.ident, s.weight) if s else None for s in coord._slots),
        tuple(coord._min_keys),
        coord.rounds_announced,
        coord._announced,
    )


def _unweighted_state(proto, counters):
    coord = proto.coordinator
    return (
        counters.snapshot(),
        tuple((i.ident, i.weight, k) for i, k in proto.sample_with_keys()),
        coord._epoch,
        coord._counter,
    )


def _l1_state(tracker, counters):
    coord = tracker.coordinator
    return (
        counters.snapshot(),
        tracker.estimate(),
        coord._exact_duplicated_weight,
        tuple((i.ident, i.weight, k) for i, k in coord.sample_set.entries()),
        coord.epochs.epoch,
        coord.epochs.broadcasts,
    )


def _hh_state(tracker, counters):
    return (
        counters.snapshot(),
        tuple((i.ident, i.weight) for i in tracker.heavy_hitters()),
        tuple((i.ident, i.weight, k) for i, k in tracker.sample_with_keys()),
    )


PROTOCOLS = {
    "swor": (
        lambda engine, bs: DistributedWeightedSWOR(
            SworConfig(num_sites=16, sample_size=12),
            seed=11,
            engine=engine,
            batch_size=bs,
        ),
        _swor_state,
    ),
    "swr": (
        lambda engine, bs: DistributedWeightedSWR(
            16, 12, seed=11, engine=engine, batch_size=bs
        ),
        _swr_state,
    ),
    "unweighted": (
        lambda engine, bs: DistributedUnweightedSWOR(
            16, 12, seed=11, engine=engine, batch_size=bs
        ),
        _unweighted_state,
    ),
    "l1": (
        lambda engine, bs: L1Tracker(
            16,
            0.2,
            0.2,
            seed=11,
            sample_size_override=48,
            duplication_override=24,
            engine=engine,
            batch_size=bs,
        ),
        _l1_state,
    ),
    "hh": (
        lambda engine, bs: ResidualHeavyHitterTracker(
            16, 0.1, seed=11, engine=engine, batch_size=bs
        ),
        _hh_state,
    ),
    "swr-hh-baseline": (
        lambda engine, bs: SwrHeavyHitterTracker(
            16, 0.1, seed=11, engine=engine, batch_size=bs
        ),
        lambda t, c: (
            c.snapshot(),
            tuple((i.ident, i.weight) for i in t.heavy_hitters()),
        ),
    ),
}


def _run(name, engine, bs=None, stream=None, traced=False):
    """One run's fingerprint.  ``traced`` attaches a
    :class:`MessageTrace`, which makes the network fold every pack
    message by message through ``on_message``; the trace must then
    account for every upstream message."""
    build, fingerprint = PROTOCOLS[name]
    instance = build(engine, bs)
    trace = None
    if traced:
        protocol = getattr(instance, "protocol", instance)
        trace = MessageTrace.attach(protocol.network)
    counters = instance.run(stream if stream is not None else _stream())
    if trace is not None:
        up = sum(1 for e in trace.events if e.direction == "up")
        assert up == counters.upstream
    return fingerprint(instance, counters)


# ---------------------------------------------------------------------------
# 1. Engine bit-parity, every protocol
# ---------------------------------------------------------------------------


class TestProtocolEngineParity:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("bs", PACK_BATCH_SIZES)
    def test_untraced_equals_traced(self, name, bs):
        """The pack path (``on_message_pack`` with its bulk commits and
        replay fallbacks) equals per-message folding at batch sizes
        that build multi-entry packs."""
        stream = _stream()
        traced = _run(name, "columnar", bs, stream, traced=True)
        assert _run(name, "columnar", bs, stream) == traced

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_batch_size_one_is_reference(self, name):
        stream = _stream(n=6_000)
        reference = _run(name, "reference", stream=stream)
        assert _run(name, "columnar", 1, stream) == reference

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_columnar_stream_input_identical(self, name):
        stream = _stream(n=12_000)
        columnar_stream = ColumnarStream.from_distributed(stream)
        assert _run(name, "columnar", stream=columnar_stream) == _run(
            name, "columnar", stream=stream
        )

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("bs", [7, None])
    def test_skewed_partition_parity(self, name, bs):
        """Site 0 sees every above-median weight, so even 7-item
        windows hand it multi-entry packs; those small packs fold like
        per-message delivery, as do the default windows' packs."""
        items = zipf_stream(20_000, random.Random(8), alpha=1.3)
        stream = heavy_to_one_site(items, 16)
        assert _run(name, "columnar", bs, stream) == _run(
            name, "columnar", bs, stream, traced=True
        )


# ---------------------------------------------------------------------------
# 2. Kind-parametric pack accounting
# ---------------------------------------------------------------------------


class TestSwrPackAccounting:
    def _pack(self, rng, nr, huge=False):
        return MessagePack(
            regular_idents=np.array(
                [rng.randrange(2**40) for _ in range(nr)], dtype=np.int64
            ),
            regular_weights=np.array(
                [rng.uniform(1, 1e280 if huge else 1e6) for _ in range(nr)]
            ),
            regular_keys=np.array([rng.random() for _ in range(nr)]),
            regular_kind=SWR_SAMPLE,
            regular_extra=np.array(
                [rng.randrange(64) for _ in range(nr)], dtype=np.int64
            ),
        )

    @pytest.mark.parametrize("nr,huge", [(5, False), (3, True), (90, False), (80, True)])
    def test_pack_counts_equal_per_message_counts(self, rng, nr, huge):
        pack = self._pack(rng, nr, huge=huge)
        bulk = MessageCounters()
        bulk.record_upstream_pack(pack)
        scalar = MessageCounters()
        for message in pack.messages():
            scalar.record_upstream(message)
        assert bulk.snapshot() == scalar.snapshot()

    def test_messages_carry_sampler_prefix(self):
        pack = MessagePack(
            regular_idents=np.array([5], dtype=np.int64),
            regular_weights=np.array([2.5]),
            regular_keys=np.array([0.125]),
            regular_kind=SWR_SAMPLE,
            regular_extra=np.array([3], dtype=np.int64),
        )
        assert pack.messages() == [Message(SWR_SAMPLE, (3, 5, 2.5, 0.125))]

    def test_default_kind_unchanged(self):
        pack = MessagePack(
            regular_idents=np.array([1], dtype=np.int64),
            regular_weights=np.array([1.0]),
            regular_keys=np.array([2.0]),
        )
        assert pack.regular_kind == REGULAR
        assert pack.messages() == [Message(REGULAR, (1, 1.0, 2.0))]


# ---------------------------------------------------------------------------
# 3. Coordinator pack paths: bulk fold vs sequential replay
# ---------------------------------------------------------------------------


def _assert_pack_equivalent(bulk, seq, pack, state):
    responses_bulk = bulk.on_message_pack(0, pack)
    responses_seq = []
    for message in pack.messages():
        responses_seq.extend(seq.on_message(0, message))
    assert [(d, m.kind, m.payload) for d, m in responses_bulk] == [
        (d, m.kind, m.payload) for d, m in responses_seq
    ]
    assert state(bulk) == state(seq)


class TestSwrCoordinatorPack:
    def _twins(self, s=3, beta=3.0):
        return _SwrCoordinator(s, beta), _SwrCoordinator(s, beta)

    @staticmethod
    def _state(coord):
        return (
            tuple(coord._min_keys),
            tuple((i.ident, i.weight) if i else None for i in coord._slots),
            coord.rounds_announced,
            coord._announced,
        )

    def _pack(self, entries):
        samplers, idents, weights, keys = zip(*entries)
        return MessagePack(
            regular_idents=np.array(idents, dtype=np.int64),
            regular_weights=np.array(weights),
            regular_keys=np.array(keys),
            regular_kind=SWR_SAMPLE,
            regular_extra=np.array(samplers, dtype=np.int64),
        )

    def test_quiet_pack_takes_bulk_path(self):
        bulk, seq = self._twins()
        # Underfull min-keys (one sampler never hit) -> never announces.
        pack = self._pack(
            [(0, 1, 2.0, 0.5), (1, 2, 3.0, 0.25), (0, 3, 1.0, 0.125), (0, 4, 1.0, 0.5)]
        )
        _assert_pack_equivalent(bulk, seq, pack, self._state)
        assert bulk.rounds_announced == 0

    def test_round_crossing_pack_replays(self):
        bulk, seq = self._twins(s=2)
        # Fill both samplers with small keys -> a round announces.
        pack = self._pack(
            [(0, 1, 2.0, 0.099), (1, 2, 3.0, 0.0105), (0, 3, 1.0, 0.001)]
        )
        _assert_pack_equivalent(bulk, seq, pack, self._state)
        assert bulk.rounds_announced >= 1

    def test_tie_first_arrival_wins(self):
        bulk, seq = self._twins()
        pack = self._pack(
            [(0, 10, 2.0, 0.5), (0, 11, 3.0, 0.5), (1, 12, 1.0, 0.75)]
        )
        _assert_pack_equivalent(bulk, seq, pack, self._state)
        assert bulk._slots[0].ident == 10  # strict < keeps the first


class TestUnweightedCoordinatorPack:
    @staticmethod
    def _state(coord):
        return (
            sorted((-k, c, i.ident, i.weight) for k, c, i in coord._heap),
            coord.threshold,
            coord._epoch,
            coord._counter,
        )

    def _pack(self, keys):
        n = len(keys)
        return MessagePack(
            regular_idents=np.arange(100, 100 + n, dtype=np.int64),
            regular_weights=np.ones(n),
            regular_keys=np.array(keys),
        )

    def _warm(self, coord, keys):
        for i, key in enumerate(keys):
            coord.on_message(0, Message(REGULAR, (i, 1.0, key)))

    def test_underfull_pack_replays_exactly(self):
        bulk = _UnweightedCoordinator(4, 2.0)
        seq = _UnweightedCoordinator(4, 2.0)
        pack = self._pack([0.9, 0.3, 0.5])
        _assert_pack_equivalent(bulk, seq, pack, self._state)

    def test_quiet_pack_takes_bulk_path(self):
        bulk = _UnweightedCoordinator(3, 2.0)
        seq = _UnweightedCoordinator(3, 2.0)
        for coord in (bulk, seq):
            self._warm(coord, [0.4, 0.6, 0.45])
        pack = self._pack([0.41, 0.5, 0.44])  # same epoch bracket
        _assert_pack_equivalent(bulk, seq, pack, self._state)

    def test_epoch_crossing_pack_replays(self):
        bulk = _UnweightedCoordinator(2, 2.0)
        seq = _UnweightedCoordinator(2, 2.0)
        for coord in (bulk, seq):
            self._warm(coord, [0.9, 0.8])
        # Keys collapsing the threshold through several brackets.
        pack = self._pack([0.3, 0.04, 0.004])
        _assert_pack_equivalent(bulk, seq, pack, self._state)
        assert bulk._epoch >= 1

    def test_counter_advances_for_rejected_entries(self):
        bulk = _UnweightedCoordinator(2, 2.0)
        seq = _UnweightedCoordinator(2, 2.0)
        for coord in (bulk, seq):
            self._warm(coord, [0.2, 0.3])
        pack = self._pack([0.9, 0.95, 0.25])  # two rejects, one accept
        _assert_pack_equivalent(bulk, seq, pack, self._state)
        assert bulk._counter == 5


class TestL1CoordinatorPack:
    @staticmethod
    def _state(coord):
        return (
            tuple((i.ident, i.weight, k) for i, k in coord.sample_set.entries()),
            coord._exact_duplicated_weight,
            coord._announced_any,
            coord.epochs.epoch,
        )

    def _pack(self, keys, weight=1.0):
        n = len(keys)
        return MessagePack(
            regular_idents=np.arange(n, dtype=np.int64),
            regular_weights=np.full(n, weight),
            regular_keys=np.array(keys),
        )

    def test_exact_phase_accumulates_identically(self):
        bulk = _L1Coordinator(3, 4, 2.0)
        seq = _L1Coordinator(3, 4, 2.0)
        pack = self._pack([0.5, 0.7, 0.6], weight=0.1)
        _assert_pack_equivalent(bulk, seq, pack, self._state)
        assert bulk._exact_duplicated_weight == pytest.approx(0.3)
        assert not bulk._announced_any

    def test_epoch_crossing_pack_replays(self):
        bulk = _L1Coordinator(2, 4, 2.0)
        seq = _L1Coordinator(2, 4, 2.0)
        pack = self._pack([3.0, 5.0, 9.0, 17.0])  # threshold sweeps epochs
        _assert_pack_equivalent(bulk, seq, pack, self._state)
        assert bulk._announced_any


# ---------------------------------------------------------------------------
# 4. Multi-query driver on ColumnarStream
# ---------------------------------------------------------------------------


class TestDriverOnColumnarStream:
    def _catalog(self):
        from repro.query import (
            CountQuery,
            SlidingWindowQuery,
            SubsetSumQuery,
            TotalWeightQuery,
            WeightedMeanQuery,
        )

        return [
            SubsetSumQuery("subset", sample_size=32),
            CountQuery("count", sample_size=32),
            WeightedMeanQuery("wmean", sample_size=24),
            TotalWeightQuery(
                "l1", eps=0.25, delta=0.2, sample_size_override=48,
                duplication_override=16,
            ),
            SlidingWindowQuery("recent", window=5_000, sample_size=16),
        ]

    def _answers(self, driver):
        out = {}
        for compiled in driver.compiled:
            counters = compiled.counters
            out[compiled.name] = (
                repr(compiled.answer()),
                None if counters is None else counters.snapshot(),
            )
        return out

    @pytest.mark.parametrize("engine", ["columnar", "reference"])
    def test_columnar_stream_answers_bit_identical(self, engine):
        from repro.query import MultiQueryDriver, QueryCatalog

        stream = _stream(n=20_000)
        columnar = ColumnarStream.from_distributed(stream)

        def run(s):
            driver = MultiQueryDriver(
                QueryCatalog(self._catalog()), num_sites=16, seed=5, engine=engine
            )
            driver.run(s, checkpoints=[7_000])
            return self._answers(driver)

        assert run(columnar) == run(stream)

    def test_generic_columnar_consumers_match_standalone(self):
        from repro.query import MultiQueryDriver, QueryCatalog, query_seed

        stream = _stream(n=20_000)
        columnar = ColumnarStream.from_distributed(stream)
        driver = MultiQueryDriver(
            QueryCatalog(self._catalog()), num_sites=16, seed=5, engine="columnar"
        )
        driver.run(columnar)
        standalone = DistributedUnweightedSWOR(
            16, 32, seed=query_seed(5, "count"), engine="columnar"
        )
        counters = standalone.run(stream)
        assert standalone.sample_with_keys() == driver[
            "count"
        ].protocol.sample_with_keys()
        assert counters.snapshot() == driver["count"].counters.snapshot()
        swr = DistributedWeightedSWR(
            16, 24, seed=query_seed(5, "wmean"), engine="columnar"
        )
        swr_counters = swr.run(stream)
        assert [(i.ident, i.weight) for i in swr.sample()] == [
            (i.ident, i.weight) for i in driver["wmean"].protocol.sample()
        ]
        assert swr_counters.snapshot() == driver["wmean"].counters.snapshot()

    def test_sliding_window_consumes_timestamp_column(self):
        from repro.query import MultiQueryDriver, QueryCatalog, SlidingWindowQuery

        stream = _stream(n=8_000)
        assignment, weights, idents = stream.arrays()
        with_ts = ColumnarStream(
            idents, weights, assignment, stream.num_sites,
            timestamps=np.arange(len(stream), dtype=np.float64) * 0.5,
        )
        driver = MultiQueryDriver(
            QueryCatalog([SlidingWindowQuery("recent", window=2_000)]),
            num_sites=16,
            seed=5,
            engine="columnar",
        )
        driver.run(with_ts)
        sampler = driver["recent"].sampler
        assert sampler.items_seen == 8_000
        for entry in sampler._entries:
            assert entry.timestamp == entry.index * 0.5
        # Timestamp-suffix queries need full retention; the query's
        # horizon-bounded sampler refuses rather than answering wrong.
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            sampler.sample_since(100.0)
