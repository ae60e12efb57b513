"""Multiprocess sharded engine: bit-parity, fallbacks, failure paths.

What is covered:

1. **Bit-parity** — samples AND message counters identical to the
   columnar engine across (batch_size, workers) combinations,
   including batch size 1 (pure scalar-message descriptors),
   rollback-heavy runs, checkpoints, and reused networks
   (two consecutive ``run`` calls continue the RNG streams exactly).
   The SWR and unweighted protocols match in full state — sample,
   counters, and the coordinator's and every site's ``snapshot_state()``
   — under rollbacks, which rewind sites through those hooks.
2. **Fallbacks** — workers=1 (also the default on a process pinned to
   one CPU), instrumented (traced) networks, and non-shardable sites
   all take the in-process columnar path; the engine is always safe to
   select.
3. **Worker failure** — a site raising mid-run surfaces the original
   traceback in the parent and leaves no orphaned processes or
   shared-memory segments, even when it raises in a speculative window
   during a slow parent fold; a site that raises only on stale
   speculative state runs to the columnar engine's result.
4. **Wire form** — ``MessagePack.to_arrays``/``from_arrays`` round-trip
   (hypothesis property), with exact counter-accounting parity.
5. **Shard slice views** — per-window grouping matches the columnar
   engine's full-window grouping slices.
6. **Site snapshots** — a SWOR site's snapshots share its scalar
   stream's state until a draw moves it: a restore replays every
   scalar draw path exactly, and window passes that draw nothing from
   that stream copy none of its state.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.core import DistributedWeightedSWOR, SworConfig, SworSite
from repro.core.swr import DistributedWeightedSWR
from repro.core.unweighted import DistributedUnweightedSWOR
from repro.net.counters import MessageCounters
from repro.net.messages import (
    COUNT_REPORT,
    ESTIMATE_BROADCAST,
    REGULAR,
    SWR_SAMPLE,
    Message,
    MessagePack,
)
from repro.net.tracing import MessageTrace
from repro.runtime import (
    BROADCAST,
    ColumnarEngine,
    Network,
    ShardedEngine,
    ShardedWorkerError,
    get_engine,
)
from repro.runtime.columnar import GroupedWindow
from repro.runtime.interfaces import CoordinatorAlgorithm, SiteAlgorithm
from repro.stream import round_robin, zipf_stream
from repro.stream.columns import ColumnarStream, ShardSliceView
from repro.stream.item import Item

np = pytest.importorskip("numpy")

SITES = 8
SAMPLE = 4
SEED = 3


def _stream(n=20000, seed=0, sites=SITES):
    return round_robin(zipf_stream(n, random.Random(seed), alpha=1.2), sites)


def _run(stream, engine, seed=SEED, sites=SITES, **kwargs):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=sites, sample_size=SAMPLE),
        seed=seed,
        engine=engine,
        **kwargs,
    )
    proto.run(stream)
    return proto


def _fingerprint(proto):
    return (
        [(item.ident, item.weight, key) for item, key in proto.sample_with_keys()],
        proto.counters.snapshot(),
    )


#: Protocol facades by name: ``factory(num_sites, engine)``.
PROTOCOLS = {
    "swor": lambda sites, engine: DistributedWeightedSWOR(
        SworConfig(num_sites=sites, sample_size=SAMPLE), seed=SEED, engine=engine
    ),
    "swr": lambda sites, engine: DistributedWeightedSWR(
        sites, SAMPLE, seed=SEED, engine=engine
    ),
    "unweighted": lambda sites, engine: DistributedUnweightedSWOR(
        sites, SAMPLE, seed=SEED, engine=engine
    ),
}


def _full_state(proto):
    """A protocol's sample, counters and the ``snapshot_state()`` of its
    coordinator and every site."""
    network = proto.network
    return (
        [(item.ident, item.weight) for item in proto.sample()],
        network.counters.snapshot(),
        network.coordinator.snapshot_state(),
        [site.snapshot_state() for site in network.sites],
    )


# ---------------------------------------------------------------------------
# 1. Bit-parity with the columnar engine
# ---------------------------------------------------------------------------


class TestShardedParity:
    @pytest.fixture(scope="class")
    def shared_stream(self):
        return _stream()

    @pytest.fixture(scope="class")
    def columnar_1024(self, shared_stream):
        return _fingerprint(_run(shared_stream, ColumnarEngine(batch_size=1024)))

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_bit_parity_across_workers(self, shared_stream, columnar_1024, workers):
        engine = ShardedEngine(batch_size=1024, workers=workers)
        proto = _run(shared_stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert _fingerprint(proto) == columnar_1024
        # Control broadcasts landed mid-window: the rollback protocol —
        # the one genuinely new piece of the engine — actually ran.
        assert engine.last_run_stats["rollbacks"] > 0

    def test_bit_parity_default_batch_size(self, shared_stream):
        columnar = _fingerprint(_run(shared_stream, "columnar"))
        engine = ShardedEngine(workers=2)
        proto = _run(shared_stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert _fingerprint(proto) == columnar

    def test_bit_parity_on_columnar_stream(self, shared_stream, columnar_1024):
        columnar_stream = ColumnarStream.from_distributed(shared_stream)
        engine = ShardedEngine(batch_size=1024, workers=3)
        proto = _run(columnar_stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert _fingerprint(proto) == columnar_1024

    def test_batch_size_one_scalar_transport(self):
        # Every (site, window) result is a scalar message list — the
        # pack-free half of the wire protocol, bit-identical too.
        stream = _stream(n=900, seed=7, sites=6)
        columnar = _fingerprint(
            _run(stream, ColumnarEngine(batch_size=1), sites=6)
        )
        engine = ShardedEngine(batch_size=1, workers=2)
        proto = _run(stream, engine, sites=6)
        assert engine.last_run_stats["mode"] == "sharded"
        assert _fingerprint(proto) == columnar

    def test_checkpoints_and_steps_match_columnar(self):
        stream = _stream(n=6000, seed=11)
        checkpoints = [100, 2500, 2501, 6000]

        def run(engine):
            proto = DistributedWeightedSWOR(
                SworConfig(num_sites=SITES, sample_size=SAMPLE),
                seed=SEED,
                engine=engine,
            )
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

    @pytest.mark.parametrize("protocol", ["swor", "swr"])
    def test_reused_network_continues_rng_streams(self, protocol):
        # The second run must ship the *advanced* site states: the
        # parent restores its sites from the workers' final snapshots,
        # and a site that never drew in the parent gets its batch
        # stream from that snapshot.
        items = zipf_stream(3000, random.Random(2), alpha=1.3)
        first = round_robin(items[:1500], 6)
        second = round_robin(items[1500:], 6)

        def run_twice(engine):
            proto = PROTOCOLS[protocol](6, engine)
            proto.run(first)
            proto.run(second)
            return _full_state(proto)

        assert run_twice(ColumnarEngine(batch_size=512)) == run_twice(
            ShardedEngine(batch_size=512, workers=3)
        )

    @pytest.mark.parametrize(
        "protocol,sites,batch_size",
        [
            ("swr", SITES, 1024),
            ("swr", 64, 32),
            ("unweighted", SITES, 1024),
            ("unweighted", 64, 32),
        ],
    )
    def test_snapshot_parity_under_rollbacks(self, protocol, sites, batch_size):
        # ROUND_UPDATE broadcasts drive the lockstep: each roll rewinds
        # the suffix sites through their own snapshot hooks.
        stream = _stream(n=8000, seed=21, sites=sites)

        def run(engine):
            proto = PROTOCOLS[protocol](sites, engine)
            proto.run(stream)
            return _full_state(proto)

        columnar = run(ColumnarEngine(batch_size=batch_size))
        engine = ShardedEngine(batch_size=batch_size, workers=3)
        try:
            sharded = run(engine)
            stats = engine.last_run_stats
        finally:
            engine.close()
        assert stats["mode"] == "sharded"
        assert stats["rollbacks"] > 0
        assert sharded == columnar

    def test_warm_pool_reuse_across_protocols(self, shared_stream, columnar_1024):
        # One engine instance, two independent protocol runs: the
        # second reuses the spawned worker pool (fresh site states are
        # re-shipped) and stays bit-identical.  The record books the
        # cold pool's spawn as setup, inside the run's wall.
        engine = ShardedEngine(batch_size=1024, workers=2)
        try:
            first = _run(shared_stream, engine)
            cold = engine.last_run_stats
            assert cold["warm_pool"] is False
            assert "(cold pool)" in engine.format_stats()
            second = _run(shared_stream, engine)
            warm = engine.last_run_stats
            assert warm["warm_pool"] is True
            assert "(warm pool)" in engine.format_stats()
            assert 0 < warm["setup_seconds"] < cold["setup_seconds"]
            assert cold["setup_seconds"] < cold["seconds"]
            assert _fingerprint(first) == columnar_1024
            assert _fingerprint(second) == columnar_1024
        finally:
            engine.close()

    def test_close_is_idempotent_and_unlinks_segments(self):
        from multiprocessing import shared_memory

        engine = ShardedEngine(batch_size=512, workers=2)
        _run(_stream(n=2000), engine)
        segments = engine.last_run_stats["shm_segments"]
        assert segments  # rings + the cached stream columns
        engine.close()
        engine.close()
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_resource_report_transplanted(self, shared_stream, columnar_1024):
        columnar = _run(shared_stream, ColumnarEngine(batch_size=1024))
        engine = ShardedEngine(batch_size=1024, workers=3)
        sharded = _run(shared_stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert sharded.resource_report() == columnar.resource_report()
        assert sum(s.items_seen for s in sharded.sites) == len(shared_stream)


# ---------------------------------------------------------------------------
# 2. Fallbacks
# ---------------------------------------------------------------------------


class _UnshardableSite(SiteAlgorithm):
    shardable = False

    def on_item(self, item):
        return []

    def on_control(self, message):
        pass


class TestShardedFallbacks:
    def test_single_worker_runs_in_process(self):
        stream = _stream(n=3000)
        engine = ShardedEngine(batch_size=512, workers=1)
        proto = _run(stream, engine)
        stats = engine.last_run_stats
        # One record holds the fallback marker and the run's own
        # engine/items/seconds/windows keys.
        assert stats["mode"] == "fallback"
        assert stats["reason"] == "single worker"
        assert stats["engine"] == "sharded" and stats["items"] == 3000
        assert _fingerprint(proto) == _fingerprint(
            _run(stream, ColumnarEngine(batch_size=512))
        )

    def test_host_without_shared_memory_runs_in_process(self, monkeypatch):
        # Shared memory carries the stream and the packs; a host whose
        # import of it failed falls back like any worker-setup failure.
        from repro.runtime import sharded

        monkeypatch.setattr(sharded, "_shared_memory", None)
        stream = _stream(n=3000)
        engine = ShardedEngine(batch_size=512, workers=2)
        proto = _run(stream, engine)
        stats = engine.last_run_stats
        assert stats["mode"] == "fallback"
        assert stats["reason"].startswith("worker setup failed")
        assert "shared_memory is unavailable" in stats["reason"]
        assert engine._pool is None
        assert _fingerprint(proto) == _fingerprint(
            _run(stream, ColumnarEngine(batch_size=512))
        )

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        # A process pinned to one CPU (``taskset -c 0``) defaults to one
        # worker, whatever the machine's core count.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        engine = ShardedEngine(batch_size=512)
        assert engine.workers == 1
        _run(_stream(n=3000), engine)
        stats = engine.last_run_stats
        assert stats["mode"] == "fallback"
        assert stats["reason"] == "single worker"

    def test_traced_network_falls_back_and_traces_identically(self):
        stream = _stream(n=3000, seed=9)
        reference_proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=ColumnarEngine(batch_size=512),
        )
        reference_trace = MessageTrace.attach(reference_proto.network)
        reference_proto.run(stream)
        engine = ShardedEngine(batch_size=512, workers=2)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        trace = MessageTrace.attach(proto.network)
        proto.run(stream)
        assert engine.last_run_stats["reason"] == (
            "network delivery is instrumented"
        )
        assert trace.events == reference_trace.events
        assert _fingerprint(proto) == _fingerprint(reference_proto)

    def test_non_shardable_site_falls_back(self):
        stream = _stream(n=500)
        engine = ShardedEngine(batch_size=256, workers=2)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        proto.network.sites[2] = _UnshardableSite()
        proto.run(stream)
        assert engine.last_run_stats["reason"] == "non-shardable site"

    def test_l1_matches_columnar_in_process(self):
        """The L1 site yields its copies lazily: each is delivered, and
        its epoch broadcast applied, before the next is drawn.  A worker
        cannot keep that order, so the tracker runs in-process and sends
        exactly what columnar sends."""
        from repro.l1 import L1Tracker

        stream = round_robin(zipf_stream(3000, random.Random(0)), 64)

        def run(engine):
            tracker = L1Tracker(
                64,
                0.1,
                seed=0,
                sample_size_override=8,
                duplication_override=50,
                engine=engine,
            )
            tracker.run(stream)
            return tracker.estimate(), tracker.counters.snapshot()

        engine = ShardedEngine(batch_size=64, workers=2)
        try:
            got = run(engine)
        finally:
            engine.close()
        assert got == run(ColumnarEngine(batch_size=64))
        assert engine.last_run_stats["reason"] == "non-shardable site"

    def test_get_engine_workers_validation(self):
        engine = get_engine("sharded", batch_size=2048, workers=3)
        assert isinstance(engine, ShardedEngine)
        assert (engine.batch_size, engine.workers) == (2048, 3)
        with pytest.raises(ConfigurationError, match="does not take workers"):
            get_engine("columnar", workers=2)
        with pytest.raises(ConfigurationError, match="cannot be combined"):
            get_engine(ShardedEngine(), workers=2)
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            ShardedEngine(workers=0)


# ---------------------------------------------------------------------------
# 3. Worker failure: tracebacks surface, nothing leaks
# ---------------------------------------------------------------------------


class FaultySite(SiteAlgorithm):
    """Picklable stub that works for a while, then raises mid-window."""

    def __init__(self, fail_after: int) -> None:
        self.fail_after = fail_after
        self.seen = 0

    def on_item(self, item):
        return []

    def on_columns(self, idents, weights, prep=None):
        self.seen += len(weights)
        if self.seen > self.fail_after:
            raise RuntimeError("faulty-site-exploded")
        return ()

    def on_control(self, message):
        pass


class StaleStateSite(SiteAlgorithm):
    """Picklable stub that reports its first batch, then raises on any
    later batch computed before the coordinator's broadcast reached it.

    Only a speculative window — computed before the commit that
    delivers the broadcast — can be in that state: the columnar engine
    hands the broadcast to every later site of the window it fires in,
    so on committed state this site never raises."""

    def __init__(self) -> None:
        self.reported = False
        self.ticked = False

    def on_item(self, item):
        return self.on_columns(np.array([item.ident]), np.array([item.weight]))

    def on_columns(self, idents, weights, prep=None):
        if len(weights) == 0:
            return []
        if not self.reported:
            self.reported = True
            return [Message(COUNT_REPORT, (len(weights),))]
        if not self.ticked:
            raise RuntimeError("stale-state-site-exploded")
        return []

    def on_control(self, message):
        self.ticked = True


class TickCoordinator(CoordinatorAlgorithm):
    """Broadcasts once, on the first report it receives."""

    def __init__(self) -> None:
        self.reports = 0

    def on_message(self, site_id, message):
        self.reports += 1
        if self.reports == 1:
            return [(BROADCAST, Message(ESTIMATE_BROADCAST, (1.0,)))]
        return []


class TestWorkerFailure:
    def _leaked_segments(self):
        return set(glob.glob("/dev/shm/psm_*"))

    def test_worker_exception_surfaces_traceback_without_orphans(self):
        stream = _stream(n=4000)
        before = self._leaked_segments()
        engine = ShardedEngine(batch_size=512, workers=2)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        # Site 6 sees n / k = 500 arrivals; fail partway through them.
        proto.network.sites[6] = FaultySite(fail_after=250)
        with pytest.raises(ShardedWorkerError) as excinfo:
            proto.run(stream)
        # The original worker traceback (site line included) made it up.
        assert "faulty-site-exploded" in str(excinfo.value)
        assert "on_columns" in excinfo.value.worker_traceback
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        assert multiprocessing.active_children() == []
        assert self._leaked_segments() <= before

    def test_speculative_raise_under_slow_fold_is_a_worker_error(self):
        # The site raises in a speculative window while the parent is
        # still folding the previous one; the error must surface as
        # ShardedWorkerError however the commit races the worker.
        stream = _stream(n=4000)
        engine = ShardedEngine(batch_size=512, workers=2)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        proto.network.sites[6] = FaultySite(fail_after=250)
        coordinator = proto.network.coordinator
        fold = coordinator.on_message_pack

        def slow_fold(site_id, pack):
            time.sleep(0.05)
            return fold(site_id, pack)

        coordinator.on_message_pack = slow_fold
        with pytest.raises(ShardedWorkerError) as excinfo:
            proto.run(stream)
        assert "faulty-site-exploded" in str(excinfo.value)
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        assert multiprocessing.active_children() == []

    def test_stale_state_raise_in_speculation_matches_columnar(self):
        stream = _stream(n=4000)

        def run(engine):
            sites = [StaleStateSite() for _ in range(SITES)]
            network = Network(sites, TickCoordinator())
            counters = network.run(stream, engine=engine)
            return (
                counters.snapshot(),
                network.coordinator.reports,
                [(site.reported, site.ticked) for site in network.sites],
            )

        want = run(ColumnarEngine(batch_size=512))
        engine = ShardedEngine(batch_size=512, workers=2)
        try:
            got = run(engine)
            assert engine.last_run_stats["mode"] == "sharded"
        finally:
            engine.close()
        assert got == want

    def test_failed_send_reads_a_queued_traceback_first(self):
        # A worker that shipped its traceback and closed its pipe before
        # the parent's next send fails stop, not as a crash.
        parent, child = multiprocessing.Pipe()
        child.send(("err", "Traceback: site-exploded"))
        child.close()
        handle = SimpleNamespace(
            conn=parent,
            index=1,
            site_lo=4,
            site_hi=8,
            process=SimpleNamespace(exitcode=None),
        )
        try:
            with pytest.raises(ShardedWorkerError) as excinfo:
                ShardedEngine._send(handle, ("com", []), 3)
        finally:
            parent.close()
        assert excinfo.value.fault_class == "error"
        assert excinfo.value.worker_traceback == "Traceback: site-exploded"

    def test_failure_in_first_window_still_cleans_up(self):
        stream = _stream(n=2000)
        before = self._leaked_segments()
        engine = ShardedEngine(batch_size=256, workers=3)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        proto.network.sites[0] = FaultySite(fail_after=0)
        with pytest.raises(ShardedWorkerError):
            proto.run(stream)
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        assert multiprocessing.active_children() == []
        assert self._leaked_segments() <= before


# ---------------------------------------------------------------------------
# 4. MessagePack wire form round trip
# ---------------------------------------------------------------------------


def _counter_fingerprint(pack):
    counters = MessageCounters()
    counters.record_upstream_pack(pack)
    return counters.snapshot()


class TestPackWireForm:
    @given(
        early=st.lists(
            st.tuples(
                st.integers(-(2**40), 2**40),
                st.floats(
                    min_value=1e-3,
                    max_value=1e12,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.integers(0, 60),
            ),
            max_size=8,
        ),
        regular=st.lists(
            st.tuples(
                st.integers(-(2**40), 2**40),
                st.floats(
                    min_value=1e-3,
                    max_value=1e12,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.floats(
                    min_value=1e-6,
                    max_value=1e15,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.integers(0, 15),
            ),
            max_size=8,
        ),
        kind=st.sampled_from([REGULAR, SWR_SAMPLE]),
        with_extra=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_to_arrays_round_trip(self, early, regular, kind, with_extra):
        pack = MessagePack(
            early_idents=(
                np.array([e[0] for e in early], dtype=np.int64)
                if early
                else None
            ),
            early_weights=(
                np.array([e[1] for e in early], dtype=np.float64)
                if early
                else None
            ),
            early_levels=(
                np.array([e[2] for e in early], dtype=np.int64)
                if early
                else None
            ),
            regular_idents=(
                np.array([r[0] for r in regular], dtype=np.int64)
                if regular
                else None
            ),
            regular_weights=(
                np.array([r[1] for r in regular], dtype=np.float64)
                if regular
                else None
            ),
            regular_keys=(
                np.array([r[2] for r in regular], dtype=np.float64)
                if regular
                else None
            ),
            regular_kind=kind,
            regular_extra=(
                np.array([r[3] for r in regular], dtype=np.int64)
                if regular and with_extra
                else None
            ),
        )
        back = MessagePack.from_arrays(*pack.to_arrays())
        assert back.messages() == pack.messages()
        assert back.regular_kind == pack.regular_kind
        assert _counter_fingerprint(back) == _counter_fingerprint(pack)

    def test_from_arrays_rejects_unknown_columns(self):
        with pytest.raises(ValueError, match="unknown MessagePack columns"):
            MessagePack.from_arrays(REGULAR, {"bogus": np.zeros(1)})

    def test_from_arrays_rejects_ragged_halves(self):
        with pytest.raises(ValueError, match="lengths disagree"):
            MessagePack.from_arrays(
                REGULAR,
                {
                    "early_idents": np.zeros(2, dtype=np.int64),
                    "early_weights": np.zeros(3),
                    "early_levels": np.zeros(2, dtype=np.int64),
                },
            )

    def test_from_arrays_rejects_incomplete_halves(self):
        with pytest.raises(ValueError, match="incomplete regular half"):
            MessagePack.from_arrays(
                REGULAR,
                {"regular_idents": [1], "regular_weights": [1.0]},
            )
        with pytest.raises(ValueError, match="incomplete early half"):
            MessagePack.from_arrays(
                REGULAR,
                {"early_idents": [1], "early_weights": [1.0]},
            )
        with pytest.raises(ValueError, match="regular_extra requires"):
            MessagePack.from_arrays(SWR_SAMPLE, {"regular_extra": [0]})

    def test_from_arrays_coerces_lists(self):
        pack = MessagePack.from_arrays(
            REGULAR,
            {
                "regular_idents": [1, 2],
                "regular_weights": [0.5, 2.0],
                "regular_keys": [3.0, 4.0],
            },
        )
        assert pack.regular_idents.dtype == np.int64
        assert len(pack.messages()) == 2


# ---------------------------------------------------------------------------
# 5. Shard slice views
# ---------------------------------------------------------------------------


class TestShardSliceView:
    def test_window_order_matches_columnar_grouping(self):
        """A worker groups its view's rows of a window with the
        engine's ``group_window``: each shard site's slices equal the
        full-window grouping's."""
        from repro.runtime.batched import window_order
        from repro.runtime.columnar import group_window

        rng = np.random.default_rng(5)
        assignment = rng.integers(0, 7, size=500)
        weights = rng.random(500) + 0.5
        idents = np.arange(500, dtype=np.int64)
        view = ShardSliceView.from_columns(assignment, weights, idents, 2, 5)
        lo, hi = 100, 350
        i0, i1 = view.window_bounds(lo, hi)
        window = group_window(view.sites, view.idents, view.weights, i0, i1)
        # Reference: the full-window grouping the columnar engine does.
        positions, full_ids, run_starts, run_ends = window_order(
            assignment, lo, hi
        )
        expected = {}
        for sid, start, end in zip(full_ids, run_starts, run_ends):
            if 2 <= sid < 5:
                expected[sid] = positions[start:end]
        assert window.site_ids == sorted(expected)
        for sid, start, end in zip(window.site_ids, window.starts, window.ends):
            assert window.idents[start:end].tolist() == (
                idents[expected[sid]].tolist()
            )
            assert window.weights[start:end].tolist() == (
                weights[expected[sid]].tolist()
            )

    def test_shard_views_partition_the_stream(self):
        """``shard_range`` plus ``from_columns`` — the worker dispatch's
        partition — cover every arrival exactly once."""
        stream = ColumnarStream.from_distributed(_stream(n=1000))
        views = [
            ShardSliceView.from_columns(
                stream.sites,
                stream.weights,
                stream.idents,
                *ShardSliceView.shard_range(stream.num_sites, 3, index),
            )
            for index in range(3)
        ]
        assert [v.site_lo for v in views] == [0, 2, 5]
        assert [v.site_hi for v in views] == [2, 5, 8]
        assert sum(len(v) for v in views) == len(stream)
        recovered = np.sort(np.concatenate([v.positions for v in views]))
        assert recovered.tolist() == list(range(len(stream)))

    def test_shard_views_validation(self):
        stream = ColumnarStream.from_distributed(_stream(n=100))
        columns = (stream.sites, stream.weights, stream.idents)
        with pytest.raises(ConfigurationError, match="invalid shard range"):
            ShardSliceView.from_columns(*columns, 5, 2)
        with pytest.raises(ConfigurationError, match="lengths disagree"):
            ShardSliceView([0, 1], [0, 0], [1.0], [7], 0, 1)


# ---------------------------------------------------------------------------
# 6. Site snapshots
# ---------------------------------------------------------------------------

#: A mask saturating every level of the weights below: all regular.
ALL_SATURATED = (1 << 64) - 1


def _swor_site(count_bits=False, seed=11):
    config = SworConfig(num_sites=2, sample_size=2, count_bits=count_bits)
    site = SworSite(0, config, np.random.default_rng(seed))
    site._saturated_mask = ALL_SATURATED
    return site


def _one_run_window(site, weights):
    """``site.prepare_window`` over one run of ``weights``: its keys."""
    weights = np.asarray(weights, dtype=np.float64)
    m = len(weights)
    window = GroupedWindow(np.arange(m, dtype=np.int64), weights, [0], [0], [m])
    return site.prepare_window(window, [(0, site, 0, m)]).regular_keys.tolist()


#: Every path that draws from a SWOR site's generator:
#: ``(site factory, draw)``.
SCALAR_DRAWS = {
    "on_item": (_swor_site, lambda site: site.on_item(Item(1, 5.0))[0].payload),
    "count_bits": (
        lambda: _swor_site(count_bits=True),
        lambda site: site.on_item(Item(1, 5.0))[0].payload,
    ),
    "on_columns": (
        _swor_site,
        lambda site: site.on_columns(
            np.arange(3, dtype=np.int64), np.array([2.0, 5.0, 9.0])
        ).regular_keys.tolist(),
    ),
    "window_single_arrival": (
        _swor_site,
        lambda site: _one_run_window(site, [5.0]),
    ),
    "window_many": (
        _swor_site,
        lambda site: _one_run_window(site, [2.0, 5.0, 9.0]),
    ),
}


class TestSiteSnapshots:
    """A SWOR site's snapshot holds its one generator's state (four
    64-bit words) and its scalars, so restoring one snapshot rewinds
    every draw path: each replays bit for bit."""

    @pytest.mark.parametrize("path", sorted(SCALAR_DRAWS))
    def test_restore_replays_each_scalar_draw(self, path):
        make_site, draw = SCALAR_DRAWS[path]
        site = make_site()
        before = site.snapshot_state()
        first = draw(site)
        after = site.snapshot_state()
        site.restore_state(before)
        assert draw(site) == first
        assert site.snapshot_state() == after
        assert after[0] != before[0]  # the path drew from the generator


# ---------------------------------------------------------------------------
# 7. CLI + driver passthrough
# ---------------------------------------------------------------------------


class TestShardedPlumbing:
    def test_cli_workers_requires_sharded(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--workers requires"):
            main(["swor", "--items", "100", "--workers", "2"])

    def test_cli_sharded_smoke(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "swor",
                    "--items",
                    "2000",
                    "--sites",
                    "6",
                    "--engine",
                    "sharded",
                    "--workers",
                    "2",
                    "--batch-size",
                    "512",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "messages=" in out

    def test_driver_sharded_passthrough_matches_columnar(self):
        from repro.query import MultiQueryDriver, SubsetSumQuery

        stream = _stream(n=4000, seed=13)
        queries = [
            SubsetSumQuery("total", sample_size=8),
            SubsetSumQuery(
                "evens",
                predicate=lambda item: item.ident % 2 == 0,
                sample_size=8,
            ),
        ]

        def answers(engine):
            driver = MultiQueryDriver(
                queries, num_sites=SITES, seed=1, engine=engine
            )
            result = driver.run(stream)
            return {
                name: (answer.value, answer.ci_low, answer.ci_high)
                for name, answer in result.answers.items()
            }

        assert answers("sharded") == answers("columnar")

    def test_driver_rejects_unknown_engine(self):
        from repro.query import MultiQueryDriver, SubsetSumQuery

        with pytest.raises(ConfigurationError, match="sharded"):
            MultiQueryDriver(
                [SubsetSumQuery("t", sample_size=4)],
                num_sites=4,
                engine="warp-drive",
            )
