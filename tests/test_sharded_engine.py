"""Multiprocess sharded engine: bit-parity, transports, failure paths.

What is covered:

1. **Bit-parity** — samples AND message counters identical to the
   columnar engine across (batch_size, workers, transport)
   combinations, including batch size 1 (pure scalar-message
   transport), rollback-heavy runs, checkpoints, and reused networks
   (two consecutive ``run`` calls continue the RNG streams exactly).
2. **Fallbacks** — workers=1, numpy-free installs, instrumented
   (traced) networks, and non-shardable sites all take the in-process
   columnar path; the engine is always safe to select.
3. **Worker failure** — a site raising mid-run surfaces the original
   traceback in the parent and leaves no orphaned processes or
   shared-memory segments.
4. **Wire form** — ``MessagePack.to_arrays``/``from_arrays`` round-trip
   (hypothesis property), with exact counter-accounting parity.
5. **Shard slice views** — per-window grouping matches the columnar
   engine's full-window grouping slices.
"""

from __future__ import annotations

import glob
import multiprocessing
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.net.counters import MessageCounters
from repro.net.messages import REGULAR, SWR_SAMPLE, MessagePack
from repro.net.tracing import MessageTrace
from repro.runtime import (
    ColumnarEngine,
    ShardedEngine,
    ShardedWorkerError,
    get_engine,
)
from repro.runtime.interfaces import SiteAlgorithm
from repro.stream import round_robin, zipf_stream
from repro.stream.columns import ColumnarStream, ShardSliceView

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

    @pytest.mark.parametrize(
        "workers,transport", [(2, "shm"), (3, "pipe"), (4, "auto")]
    )
    def test_bit_parity_across_workers_and_transports(
        self, shared_stream, columnar_1024, workers, transport
    ):
        engine = ShardedEngine(
            batch_size=1024, workers=workers, transport=transport
        )
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

    def test_reused_network_continues_rng_streams(self):
        # The second run must pickle the *advanced* site states back in
        # — worker finals are transplanted onto the parent's mirrors.
        items = zipf_stream(3000, random.Random(2), alpha=1.3)
        first = round_robin(items[:1500], 6)
        second = round_robin(items[1500:], 6)

        def run_twice(engine):
            proto = DistributedWeightedSWOR(
                SworConfig(num_sites=6, sample_size=SAMPLE),
                seed=SEED,
                engine=engine,
            )
            proto.run(first)
            proto.run(second)
            return _fingerprint(proto), proto.resource_report()

        assert run_twice(ColumnarEngine(batch_size=512)) == run_twice(
            ShardedEngine(batch_size=512, workers=3)
        )

    def test_swr_parity_via_pickle_snapshots(self):
        # SWR sites implement no fast snapshot hooks, so the worker
        # falls back to pickling whole shards — the other rollback
        # path — and ROUND_UPDATE broadcasts drive the lockstep.
        from repro.core.swr import DistributedWeightedSWR

        stream = _stream(n=8000, seed=21)

        def run(engine):
            proto = DistributedWeightedSWR(
                SITES, SAMPLE, seed=SEED, engine=engine
            )
            proto.run(stream)
            return (
                proto.counters.snapshot(),
                [
                    None if slot is None else (slot.ident, slot.weight)
                    for slot in proto.coordinator._slots
                ],
            )

        columnar = run(ColumnarEngine(batch_size=1024))
        engine = ShardedEngine(batch_size=1024, workers=3)
        sharded = run(engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert sharded == columnar

    def test_warm_pool_reuse_across_protocols(self, shared_stream, columnar_1024):
        # One engine instance, two independent protocol runs: the
        # second reuses the spawned worker pool (fresh site states are
        # re-shipped) and stays bit-identical.
        engine = ShardedEngine(batch_size=1024, workers=2)
        try:
            first = _run(shared_stream, engine)
            assert engine.last_run_stats["warm_pool"] is False
            second = _run(shared_stream, engine)
            assert engine.last_run_stats["warm_pool"] is True
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
        # The fallback marker survives the run-stats refresh (PR 7 adds
        # engine/items/seconds/windows to every completed run).
        assert stats["mode"] == "fallback"
        assert stats["reason"] == "single worker"
        assert stats["engine"] == "sharded" and stats["items"] == 3000
        assert _fingerprint(proto) == _fingerprint(
            _run(stream, ColumnarEngine(batch_size=512))
        )

    def test_numpy_free_fallback_matches_batched_fallback(self, monkeypatch):
        import repro.core.site as site_mod
        import repro.runtime.batched as batched_mod
        import repro.runtime.columnar as columnar_mod
        import repro.runtime.sharded as sharded_mod
        import repro.stream.item as item_mod

        stream = _stream(n=3000, seed=5)
        for mod in (site_mod, batched_mod, columnar_mod, sharded_mod, item_mod):
            monkeypatch.setattr(mod, "_np", None)
        batched = _fingerprint(_run(stream, "batched"))
        engine = ShardedEngine(workers=4)
        proto = _run(stream, engine)
        assert engine.last_run_stats["reason"] == "numpy unavailable"
        assert _fingerprint(proto) == batched

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
        with pytest.raises(ConfigurationError, match="transport"):
            ShardedEngine(transport="carrier-pigeon")


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
        from repro.runtime.batched import window_order

        rng = np.random.default_rng(5)
        assignment = rng.integers(0, 7, size=500)
        weights = rng.random(500) + 0.5
        idents = np.arange(500, dtype=np.int64)
        view = ShardSliceView.from_columns(assignment, weights, idents, 2, 5)
        lo, hi = 100, 350
        i0, i1 = view.window_bounds(lo, hi)
        site_ids, starts, ends, idents_sorted, weights_sorted = (
            view.window_order(i0, i1)
        )
        # Reference: the full-window grouping the columnar engine does.
        positions, full_ids, run_starts, run_ends = window_order(
            assignment, lo, hi
        )
        expected = {}
        for sid, start, end in zip(full_ids, run_starts, run_ends):
            if 2 <= sid < 5:
                expected[sid] = positions[start:end]
        assert site_ids == sorted(expected)
        for sid, start, end in zip(site_ids, starts, ends):
            assert idents_sorted[start:end].tolist() == (
                idents[expected[sid]].tolist()
            )
            assert weights_sorted[start:end].tolist() == (
                weights[expected[sid]].tolist()
            )

    def test_shard_views_partition_the_stream(self):
        stream = ColumnarStream.from_distributed(_stream(n=1000))
        views = stream.shard_views(3)
        assert [v.site_lo for v in views] == [0, 2, 5]
        assert [v.site_hi for v in views] == [2, 5, 8]
        assert sum(len(v) for v in views) == len(stream)
        recovered = np.sort(np.concatenate([v.positions for v in views]))
        assert recovered.tolist() == list(range(len(stream)))

    def test_shard_views_validation(self):
        stream = ColumnarStream.from_distributed(_stream(n=100))
        with pytest.raises(ConfigurationError):
            stream.shard_views(0)
        with pytest.raises(ConfigurationError):
            stream.shard_views(9)


# ---------------------------------------------------------------------------
# 6. CLI + driver passthrough
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
