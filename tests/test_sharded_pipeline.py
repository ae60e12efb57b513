"""Speculating sharded engine under adversarial control traffic.

The broadcast-storm stream below is built to make speculation *lose*
constantly: a tiny ``level_set_factor`` shrinks the saturation size so
LEVEL_SATURATED broadcasts fire repeatedly, and an escalating weight
spine forces the threshold across epoch brackets again and again
(EPOCH_UPDATE broadcasts).  Every control broadcast both rolls back the
in-flight window (dozens of rollbacks per run) and invalidates the
workers' speculative next window (speculation misses).  Bit-parity of
the samples AND the message counters against the single-process
columnar engine must survive all of it, across worker counts, batch
sizes, reused networks, and checkpoints.

Every window folds in exact ascending-site order, so the parent's
coordinator calls are pinned call for call against the columnar
engine's per-site packs (its window step turned off).  No shipped
coordinator sends a unicast, so a toy protocol drives both unicast
branches: a control to a later site of the window
(the engine must roll) and one to an earlier site (applied at commit,
so the owning worker's speculation must miss).  The last part pins the
``snapshot_state`` / ``restore_state`` round trips that the run-start
checkpoint of a degraded run relies on.
"""

from __future__ import annotations

import random

import pytest

from repro.core import DistributedWeightedSWOR, SworConfig
from repro.net.messages import EARLY, RAW_ITEM, ROUND_UPDATE, Message, MessagePack
from repro.runtime import ColumnarEngine, Network, ShardedEngine
from repro.runtime.interfaces import CoordinatorAlgorithm, SiteAlgorithm
from repro.stream import round_robin, zipf_stream
from repro.stream.item import Item

np = pytest.importorskip("numpy")

SITES = 8
SAMPLE = 4
SEED = 3

#: Shrinks saturation_size to round(0.75 * r * s) = 6 items per level
#: set (r = 2 here), so level sets saturate — and broadcast — within a
#: window or two of filling.
STORM_FACTOR = 0.75


def _config(sites=SITES):
    return SworConfig(
        num_sites=sites, sample_size=SAMPLE, level_set_factor=STORM_FACTOR
    )


def _storm(n=6000, seed=0, sites=SITES):
    """Adversarial stream: a cycling level ladder plus a rising spine.

    Four of five items cycle weights through ``2^0..2^7`` so every
    level set fills (and with STORM_FACTOR, saturates) continuously;
    every fifth item sits on an exponentially rising spine
    ``2^(4..24)`` that drags the sample threshold across epoch
    brackets throughout the run.  Both control families — LEVEL_SATURATED
    and EPOCH_UPDATE — therefore fire dozens of times.
    """
    rng = random.Random(seed)
    items = []
    for i in range(n):
        if i % 5 == 0:
            weight = 2.0 ** (4.0 + 20.0 * i / n) * (1.0 + rng.random())
        else:
            weight = 2.0 ** (i % 8) * (1.0 + rng.random())
        items.append(Item(i, weight))
    return round_robin(items, sites)


def _run(stream, engine, sites=SITES, **kwargs):
    proto = DistributedWeightedSWOR(
        _config(sites), seed=SEED, engine=engine, **kwargs
    )
    proto.run(stream)
    return proto


def _fingerprint(proto):
    return (
        [(item.ident, item.weight, key) for item, key in proto.sample_with_keys()],
        proto.counters.snapshot(),
    )


# ---------------------------------------------------------------------------
# 1. Bit-parity through the storm
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def storm_stream():
    return _storm()


class TestBroadcastStormParity:
    @pytest.fixture(scope="class")
    def columnar_256(self, storm_stream):
        return _fingerprint(_run(storm_stream, ColumnarEngine(batch_size=256)))

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_parity_and_speculation_accounting(
        self, storm_stream, columnar_256, workers
    ):
        engine = ShardedEngine(batch_size=256, workers=workers)
        proto = _run(storm_stream, engine)
        st = engine.last_run_stats
        assert st["mode"] == "sharded"
        assert _fingerprint(proto) == columnar_256
        # The storm must actually storm: control broadcasts land
        # mid-window dozens of times (38 observed at this config).
        assert st["rollbacks"] >= 24
        # Every window but the last is speculated by every worker, and
        # each speculation is resolved as exactly one hit or miss.
        spec = st["speculation"]
        assert spec["misses"] > 0
        expected = (st["windows"] - 1) * workers
        assert spec["hits"] + spec["misses"] == expected

    @pytest.mark.parametrize("batch_size,n", [(1, 800), (64, 4000), (512, 6000)])
    def test_parity_across_batch_sizes(self, batch_size, n):
        stream = _storm(n=n, seed=5)
        columnar = _fingerprint(
            _run(stream, ColumnarEngine(batch_size=batch_size))
        )
        engine = ShardedEngine(batch_size=batch_size, workers=2)
        proto = _run(stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert _fingerprint(proto) == columnar

    def test_reused_network_continues_through_storm(self):
        # Two consecutive runs on one protocol: the worker finals from
        # run 1 (including speculative state discarded at the fin
        # barrier) must transplant back so run 2 continues the RNG
        # streams exactly.
        first = _storm(n=3000, seed=9)
        second = _storm(n=3000, seed=10)

        def run_twice(engine):
            proto = DistributedWeightedSWOR(_config(), seed=SEED, engine=engine)
            proto.run(first)
            proto.run(second)
            return _fingerprint(proto)

        assert run_twice(ColumnarEngine(batch_size=256)) == run_twice(
            ShardedEngine(batch_size=256, workers=3)
        )

    def test_checkpoints_and_steps_match_columnar(self):
        # Checkpoints force window splits at arbitrary items; the
        # speculative next window must not disturb their timing.
        stream = _storm(n=6000, seed=11)
        checkpoints = [100, 2500, 2501, 6000]

        def run(engine):
            proto = DistributedWeightedSWOR(_config(), seed=SEED, engine=engine)
            hits, steps = [], []
            proto.run(
                stream,
                checkpoints=checkpoints,
                on_checkpoint=lambda t: hits.append(
                    (t, tuple(i.ident for i in proto.sample()))
                ),
                on_step=steps.append,
            )
            return hits, steps, _fingerprint(proto)

        assert run(ColumnarEngine(batch_size=512)) == run(
            ShardedEngine(batch_size=512, workers=3)
        )

    def test_stats_shape(self, storm_stream, columnar_256):
        engine = ShardedEngine(batch_size=256, workers=2)
        _run(storm_stream, engine)
        st = engine.last_run_stats
        assert st["timing"].keys() == {
            "worker_compute_seconds",
            "transport_wait_seconds",
            "parent_fold_seconds",
        }
        assert all(v >= 0.0 for v in st["timing"].values())
        assert len(st["per_window"]) == st["windows"]
        # format_stats renders without raising and names the setup.
        text = engine.format_stats()
        assert "2 workers" in text
        assert "speculation" in text

    def test_single_worker_fallback_dict(self, storm_stream, columnar_256):
        engine = ShardedEngine(batch_size=256, workers=1)
        proto = _run(storm_stream, engine)
        stats = engine.last_run_stats
        # One record holds the fallback marker and the run's own
        # engine/items/seconds/windows keys.
        assert stats["mode"] == "fallback"
        assert stats["reason"] == "single worker"
        assert stats["engine"] == "sharded"
        assert _fingerprint(proto) == columnar_256

    def test_timing_keys(self, storm_stream):
        # The same phases are timed per run and per window, and the
        # workers' window computes are measured.
        engine = ShardedEngine(batch_size=256, workers=2)
        _run(storm_stream, engine)
        st = engine.last_run_stats
        assert st["timing"].keys() == {
            "worker_compute_seconds",
            "transport_wait_seconds",
            "parent_fold_seconds",
        }
        assert st["timing"]["worker_compute_seconds"] > 0.0
        row_keys = {"window", "controls", *st["timing"]}
        assert all(row.keys() == row_keys for row in st["per_window"])
        assert "worker compute" in engine.format_stats()


# ---------------------------------------------------------------------------
# 2. The parent folds exactly the columnar engine's sequence
# ---------------------------------------------------------------------------


def _fold_sequence(stream, engine, step=True):
    """Run the storm under ``engine`` and record every coordinator
    call: ``(site_id, len(pack))`` per pack, ``(site_id, kind)`` per
    message.  ``step=False`` turns the columnar engine's window step
    off (no window pass, so every site runs its own ``on_columns``):
    its windows then deliver the per-site loop's packs, as the sharded
    parent does."""
    proto = DistributedWeightedSWOR(_config(), seed=SEED, engine=engine)
    coordinator = proto.coordinator
    if not step:
        for site in proto.sites:
            site.prepare_window = lambda *args: None
    calls = []
    fold_pack = coordinator.on_message_pack
    fold_message = coordinator.on_message

    def on_message_pack(site_id, pack):
        calls.append((site_id, len(pack)))
        return fold_pack(site_id, pack)

    def on_message(site_id, message):
        calls.append((site_id, message.kind))
        return fold_message(site_id, message)

    coordinator.on_message_pack = on_message_pack
    coordinator.on_message = on_message
    proto.run(stream)
    return calls, _fingerprint(proto)


class TestFoldSequence:
    @pytest.mark.parametrize("batch_size", [256, 1024])
    def test_parent_folds_columnar_sequence(self, storm_stream, batch_size):
        """The parent folds the per-site packs of the columnar engine
        whose window step is off, call for call, and ends where the
        default columnar run ends."""
        per_site = _fold_sequence(
            storm_stream, ColumnarEngine(batch_size=batch_size), step=False
        )
        default = _fold_sequence(
            storm_stream, ColumnarEngine(batch_size=batch_size)
        )
        engine = ShardedEngine(batch_size=batch_size, workers=2)
        try:
            got = _fold_sequence(storm_stream, engine)
            assert engine.last_run_stats["mode"] == "sharded"
        finally:
            engine.close()
        assert got[0] == per_site[0]
        assert got[1] == per_site[1] == default[1]
        # Stretches fold whole by default: never more folds.
        assert len(default[0]) <= len(per_site[0])


# ---------------------------------------------------------------------------
# 3. Unicast controls
# ---------------------------------------------------------------------------


class MarkSite(SiteAlgorithm):
    """Reports each arrival tagged with the last control payload it saw
    (module-level so it pickles into spawn workers)."""

    def __init__(self) -> None:
        self.mark = -1
        self.items = 0

    def on_item(self, item):
        self.items += 1
        return [Message(RAW_ITEM, (item.ident, self.mark))]

    def on_control(self, message):
        self.mark = message.payload[0]


class UnicastCoordinator(CoordinatorAlgorithm):
    """Sends a unicast control on every 7th upstream message.

    ``"next"`` targets the site after the sender: a later site of the
    same window, so the engine must roll it back.  ``"back"`` targets
    the sender or the site before it: applied at commit, so the owning
    worker's speculative next window must be redone.
    """

    def __init__(self, target: str) -> None:
        self.target = target
        self.seen: list = []

    def on_message(self, site_id, message):
        self.seen.append((site_id, *message.payload))
        n = len(self.seen)
        if n % 7:
            return []
        if self.target == "next":
            dest = (site_id + 1) % SITES
        else:
            dest = max(site_id - n // 7 % 2, 0)
        return [(dest, Message(ROUND_UPDATE, (n,)))]


@pytest.fixture(scope="module")
def unicast_stream():
    return round_robin(zipf_stream(2000, random.Random(4), alpha=1.2), SITES)


def _unicast_run(stream, target, engine):
    network = Network([MarkSite() for _ in range(SITES)], UnicastCoordinator(target))
    network.run(stream, engine=engine)
    return (
        network.coordinator.seen,
        [(site.mark, site.items) for site in network.sites],
        network.counters.snapshot(),
    )


class TestUnicastControls:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("batch_size", [64, 256])
    @pytest.mark.parametrize("target", ["next", "back"])
    def test_unicast_parity(self, unicast_stream, target, batch_size, workers):
        expected = _unicast_run(
            unicast_stream, target, ColumnarEngine(batch_size=batch_size)
        )
        engine = ShardedEngine(batch_size=batch_size, workers=workers)
        try:
            got = _unicast_run(unicast_stream, target, engine)
            stats = engine.last_run_stats
        finally:
            engine.close()
        assert stats["mode"] == "sharded"
        assert got == expected
        if target == "next":
            assert stats["rollbacks"] > 0
        else:
            assert stats["speculation"]["misses"] > 0


# ---------------------------------------------------------------------------
# 4. Coordinator and counter snapshots
# ---------------------------------------------------------------------------


def _warm_coordinator():
    """A coordinator mid-run, with a populated sample set and epoch."""
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=SITES, sample_size=SAMPLE), seed=SEED
    )
    proto.run(round_robin(zipf_stream(2000, random.Random(0), alpha=1.2), SITES))
    return proto.coordinator, proto.network.counters


def _regular_pack(keys, idents=None):
    keys = np.asarray(keys, dtype="float64")
    if idents is None:
        idents = 900_000 + np.arange(len(keys))
    return MessagePack(
        regular_idents=np.asarray(idents, dtype="int64"),
        regular_weights=np.ones(len(keys), dtype="float64"),
        regular_keys=keys,
    )


class TestUnorderedFoldContract:
    """Coordinator and counter snapshot round trips: the run-start
    checkpoint a faulted run degrades from takes one.  (Named for the
    fold these round trips first served; the name keeps the test ids
    stable.)"""

    def test_snapshot_restore_roundtrip(self):
        coord, _ = _warm_coordinator()
        saved = coord.snapshot_state()
        thr = coord.sample_set.threshold
        mutating = _regular_pack([thr * 1.001, thr * 1.002, thr * 1.003])
        coord.on_message_pack(0, mutating)
        assert coord.snapshot_state() != saved
        coord.restore_state(saved)
        assert coord.snapshot_state() == saved
        assert coord.sample_set.threshold == thr

    def test_counters_snapshot_restore_roundtrip(self):
        _, counters = _warm_coordinator()
        saved_state = counters.snapshot_state()
        saved_view = counters.snapshot()
        counters.record_upstream(Message(EARLY, (1, 2.0)))
        counters.record_upstream_pack(_regular_pack([1.0, 2.0]))
        assert counters.snapshot() != saved_view
        counters.restore_state(saved_state)
        assert counters.snapshot() == saved_view
