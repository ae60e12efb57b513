"""Chaos suite: injected faults against the sharded runtime.

What is covered:

1. **FaultPlan semantics** — parse/str round-trips, the worker wire
   form, and the seeded single-fault generator.
2. **Degradation** — one grid over every fault kind and over worker
   and window positions (the last window and a two-fault plan
   included).  Every classified fault takes the one fault path: the
   run finishes on the in-process columnar engine
   (``mode == "degraded"``), bit-identical to the fault-free columnar
   run (samples AND message counters), logs the fault's class, worker
   and window, and leaks no processes or shared-memory segments.  A
   degraded run's ``on_step``/``on_checkpoint`` calls equal the
   fault-free run's.
3. **Error surface** — ``ShardedWorkerError``'s structured context and
   message format, pinned (dashboards and scripts parse it).
4. **Property** — a seeded, uniformly drawn single fault (hypothesis)
   always degrades to a bit-identical run.

Every fault here is declarative and seeded (see
:mod:`repro.faults`): no wall-clock triggers, no global RNG, so a
failing example replays exactly.
"""

from __future__ import annotations

import glob
import multiprocessing
import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    chaos_exit,
    corrupt_descriptors,
    fault_action,
    parse_fault_plan,
)
from repro.runtime import ColumnarEngine, ShardedEngine, ShardedWorkerError
from repro.runtime.interfaces import SiteAlgorithm
from repro.stream import round_robin, zipf_stream

np = pytest.importorskip("numpy")

SITES = 8
SAMPLE = 4
SEED = 3
ITEMS = 12_000
BATCH = 1024
WORKERS = 3
#: Windows in the run above under the 64-item doubling ramp.
WINDOWS = 15
TIMEOUT = 2.0


def _stream(n=ITEMS, seed=0, sites=SITES):
    return round_robin(zipf_stream(n, random.Random(seed), alpha=1.2), sites)


def _run(engine, n=ITEMS, **kwargs):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=SITES, sample_size=SAMPLE),
        seed=SEED,
        engine=engine,
    )
    proto.run(_stream(n), **kwargs)
    return (
        [(i.ident, i.weight, k) for i, k in proto.sample_with_keys()],
        proto.counters.snapshot(),
    )


_REFERENCE = {}


def _reference(n=ITEMS):
    """The fault-free columnar fingerprint every chaos run must match."""
    if n not in _REFERENCE:
        _REFERENCE[n] = _run(ColumnarEngine(batch_size=BATCH), n)
    return _REFERENCE[n]


def _chaos_run(fault_plan, n=ITEMS):
    engine = ShardedEngine(
        batch_size=BATCH,
        workers=WORKERS,
        fault_plan=fault_plan,
        worker_timeout=TIMEOUT,
    )
    try:
        fingerprint = _run(engine, n)
        stats = engine.last_run_stats
    finally:
        engine.close()
    return fingerprint, stats


class FaultySite(SiteAlgorithm):
    """A site whose columnar pass raises — drives the ``"error"``
    fault class (module-level so it pickles into spawn workers)."""

    def on_item(self, item):
        return []

    def on_columns(self, idents, weights, prep=None):
        raise RuntimeError("faulty-site-exploded")

    def on_control(self, message):
        pass


class ExitingSite(SiteAlgorithm):
    """A site whose worker process dies once the site has seen more
    than ``exit_after`` arrivals (module-level so it pickles into spawn
    workers)."""

    def __init__(self, exit_after: int) -> None:
        self.exit_after = exit_after
        self.seen = 0

    def on_item(self, item):
        return []

    def on_columns(self, idents, weights, prep=None):
        self.seen += len(weights)
        if self.seen > self.exit_after:
            chaos_exit()
        return ()

    def on_control(self, message):
        pass


def _assert_no_orphans(before):
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    assert multiprocessing.active_children() == []
    assert set(glob.glob("/dev/shm/psm_*")) <= before


def _logged(stats):
    return [(f["fault_class"], f["worker"], f["window"]) for f in stats["faults"]]


# ---------------------------------------------------------------------------
# 1. FaultPlan semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_str_round_trip(self):
        text = "kill:1:2,corrupt:0:3,truncate:2:0"
        plan = parse_fault_plan(text)
        assert str(plan) == text
        assert plan.entries[0] == FaultSpec("kill", 1, 2)
        assert parse_fault_plan(str(plan)) == plan

    @pytest.mark.parametrize(
        "bad",
        ["boom:0:0", "kill:0", "kill:a:0", "kill:-1:0", "kill:0:-1", "respawn:1:1"],
    )
    def test_rejects_malformed_entries(self, bad):
        with pytest.raises(ConfigurationError):
            parse_fault_plan(bad)

    def test_wire_for_excludes_other_workers(self):
        plan = parse_fault_plan("kill:1:2,drop:0:1,corrupt:1:5")
        assert plan.wire_for(1) == (("kill", 2), ("corrupt", 5))
        assert plan.wire_for(0) == (("drop", 1),)
        assert plan.wire_for(2) == ()

    def test_single_is_seeded_and_in_range(self):
        a = FaultPlan.single(7, workers=3, windows=4)
        assert a == FaultPlan.single(7, workers=3, windows=4)
        (spec,) = a.entries
        assert spec.kind in FAULT_KINDS
        assert 0 <= spec.worker < 3
        assert 0 <= spec.window < 4

    def test_fault_action_matches_kind_and_window(self):
        faults = (("kill", 2), ("corrupt", 3))
        assert fault_action(faults, 2, ("kill", "hang")) == "kill"
        assert fault_action(faults, 3, ("kill", "hang")) is None
        assert fault_action(faults, 3, ("corrupt", "truncate")) == "corrupt"
        assert fault_action(None, 2, ("kill",)) is None

    def test_corrupt_descriptors_always_yields_a_mangled_pack(self):
        # No pack descriptors at all: a forged undecodable one appears.
        forged = corrupt_descriptors([], "corrupt")
        assert forged and forged[0][1] == "q"
        # A "q" descriptor loses a column under corrupt mode.
        cols = {"regular_idents": [1], "regular_weights": [2.0]}
        (mangled,) = corrupt_descriptors([(0, "q", "regular", cols)], "corrupt")
        assert len(mangled[3]) == len(cols) - 1


# ---------------------------------------------------------------------------
# 2. Degradation: one grid, bit-identical for every fault kind
# ---------------------------------------------------------------------------


class TestLockstepRecovery:
    """A fault in the lockstep window protocol: the run recovers by
    degrading to the in-process columnar engine."""

    KIND_TO_CLASS = {
        "kill": "crash",
        "hang": "hang",
        "drop": "hang",  # a dropped send manifests as a missed deadline
        "corrupt": "poison",
        "truncate": "poison",
    }

    def _assert_degrades(self, plan):
        """Run ``plan``; its first entry is the fault that fires."""
        first = parse_fault_plan(plan).entries[0]
        before = set(glob.glob("/dev/shm/psm_*"))
        fingerprint, stats = _chaos_run(plan)
        assert fingerprint == _reference()
        assert stats["mode"] == "degraded"
        assert stats["degraded_to"] == "columnar"
        assert _logged(stats) == [
            (self.KIND_TO_CLASS[first.kind], first.worker, first.window)
        ]
        _assert_no_orphans(before)

    @pytest.mark.parametrize("kind", sorted(KIND_TO_CLASS))
    def test_single_fault_recovers_bit_identical(self, kind):
        self._assert_degrades(f"{kind}:1:2")

    @pytest.mark.parametrize(
        "plan",
        [
            "kill:0:0",
            "kill:2:3",
            "hang:2:0",
            "corrupt:0:3",
            "drop:0:1",
            "corrupt:1:3",
            f"kill:1:{WINDOWS - 1}",  # the last window
            "kill:0:1,corrupt:1:3",  # the run degrades before the second
        ],
    )
    def test_worker_and_window_positions(self, plan):
        self._assert_degrades(plan)

    def test_degraded_run_fires_callbacks_like_columnar(self):
        # The sharded attempt reports windows 0-4 before the fault at
        # window 5; the columnar rerun must not report them again.
        def run(engine):
            steps, marks = [], []
            fingerprint = _run(
                engine,
                on_step=steps.append,
                checkpoints=[1500, 5000, 11000],
                on_checkpoint=marks.append,
            )
            return fingerprint, steps, marks

        want = run(ColumnarEngine(batch_size=BATCH))
        engine = ShardedEngine(
            batch_size=BATCH,
            workers=WORKERS,
            fault_plan="kill:1:5",
            worker_timeout=TIMEOUT,
        )
        try:
            got = run(engine)
            stats = engine.last_run_stats
        finally:
            engine.close()
        assert stats["mode"] == "degraded"
        assert _logged(stats) == [("crash", 1, 5)]
        assert got == want
        assert want[2] == [1500, 5000, 11000]

    def test_recovery_accounting_and_supervision_stats(self):
        fingerprint, stats = _chaos_run("kill:1:2")
        assert fingerprint == _reference()
        assert stats["supervision"] == {"worker_timeout": TIMEOUT}
        assert stats["reason"].startswith("worker crash fault: ")
        assert stats["engine"] == "sharded"
        assert stats["items"] == ITEMS

    def test_fault_free_supervised_run_reports_no_faults(self):
        fingerprint, stats = _chaos_run(None)
        assert fingerprint == _reference()
        assert stats["mode"] == "sharded"
        assert "faults" not in stats
        assert "degraded_to" not in stats
        assert stats["supervision"]["worker_timeout"] == TIMEOUT

    def test_degraded_run_exports_fault_and_degradation_metrics(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        engine = ShardedEngine(
            batch_size=BATCH,
            workers=WORKERS,
            fault_plan="corrupt:2:1",
            worker_timeout=TIMEOUT,
        ).instrument(registry)
        try:
            assert _run(engine) == _reference()
            summary = engine.format_stats()
        finally:
            engine.close()
        assert summary.startswith("sharded engine: degraded to the columnar rung")
        assert "(worker poison fault: undecodable pack descriptor" in summary
        snapshot = registry.snapshot()["metrics"]
        faults = snapshot["repro_shard_faults_total"]["samples"]
        assert [(s["labels"], s["value"]) for s in faults] == [
            ({"fault_class": "poison"}, 1)
        ]
        degradations = snapshot["repro_shard_degradations_total"]["samples"]
        assert [(s["labels"], s["value"]) for s in degradations] == [
            ({"rung": "columnar"}, 1)
        ]

    @pytest.mark.parametrize("exit_after", [0, 250])
    def test_unsupervised_crash_fails_stop(self, exit_after):
        # Supervision off ships no fault plan: a site kills its worker.
        before = set(glob.glob("/dev/shm/psm_*"))
        engine = ShardedEngine(
            batch_size=BATCH, workers=WORKERS, supervision="off"
        )
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        proto.network.sites[6] = ExitingSite(exit_after)
        try:
            with pytest.raises(ShardedWorkerError) as excinfo:
                proto.run(_stream(4000))
        finally:
            engine.close()
        err = excinfo.value
        assert err.fault_class == "crash"
        assert err.shard[0] <= 6 < err.shard[1]
        _assert_no_orphans(before)

    def test_next_run_after_degradation_spawns_a_fresh_pool(self):
        engine = ShardedEngine(
            batch_size=BATCH,
            workers=WORKERS,
            fault_plan="kill:1:2",
            worker_timeout=TIMEOUT,
        )
        try:
            assert _run(engine) == _reference()
            assert engine.last_run_stats["mode"] == "degraded"
            engine.fault_plan = None
            assert _run(engine) == _reference()
            stats = engine.last_run_stats
        finally:
            engine.close()
        assert stats["mode"] == "sharded"
        assert stats["warm_pool"] is False


# ---------------------------------------------------------------------------
# 3. Error surface: structured context, pinned message format
# ---------------------------------------------------------------------------


class TestShardedWorkerError:
    def test_from_fault_message_format_is_pinned(self):
        handle = SimpleNamespace(index=1, site_lo=2, site_hi=4)
        err = ShardedWorkerError.from_fault(handle, "crash", "boom", window=3)
        assert str(err) == "shard worker 1 (sites [2, 4)) at window 3 [crash]: boom"
        assert err.worker == 1
        assert err.shard == (2, 4)
        assert err.window == 3
        assert err.fault_class == "crash"
        assert err.worker_traceback is None

    def test_from_fault_without_window(self):
        handle = SimpleNamespace(index=0, site_lo=0, site_hi=2)
        err = ShardedWorkerError.from_fault(handle, "hang", "silent")
        assert str(err) == "shard worker 0 (sites [0, 2)) [hang]: silent"
        assert err.window is None

    def test_worker_error_class_preserves_traceback(self):
        engine = ShardedEngine(
            batch_size=BATCH, workers=WORKERS, worker_timeout=TIMEOUT
        )
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        proto.network.sites[6] = FaultySite()
        try:
            with pytest.raises(ShardedWorkerError) as excinfo:
                proto.run(_stream(4000))
        finally:
            engine.close()
        err = excinfo.value
        assert err.fault_class == "error"
        assert "faulty-site-exploded" in str(err)
        assert "on_columns" in err.worker_traceback
        assert err.worker is not None
        assert err.shard is not None


# ---------------------------------------------------------------------------
# 4. Property: any seeded single fault degrades bit-identically
# ---------------------------------------------------------------------------


def assert_single_fault_degrades(seed):
    """The property body, shared with the stress tier's 50-example
    repeat (``tests/test_stress.py``)."""
    plan = FaultPlan.single(seed, workers=WORKERS, windows=4)
    fingerprint, stats = _chaos_run(plan)
    assert fingerprint == _reference()
    assert stats["mode"] == "degraded"
    (spec,) = plan.entries
    assert [(f["worker"], f["window"]) for f in stats["faults"]] == [
        (spec.worker, spec.window)
    ]


class TestChaosProperty:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_seeded_single_fault_is_bit_identical(self, seed):
        assert_single_fault_degrades(seed)
