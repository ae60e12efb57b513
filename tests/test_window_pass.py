"""The columnar engine's SWOR window step against the per-site path.

When no level can saturate in a window (``SworCoordinator.can_park``),
``SworSite.prepare_window`` draws every run's keys on window-start
state in one pass; when the window's regulars also leave the epoch
unchanged (``SworCoordinator.folds_quietly``) the engine folds the whole
window as one pack, and otherwise it delivers each run's slice of the
pass, re-filtered against the site's live threshold.  Turning the step
off — no pass, so every site takes its own ``on_columns`` — must change
nothing: not the sample, not the counters, not any
site's ``items_seen``, ``exponentials_generated`` or RNG position, not
the coordinator's RNG position, level sets or epoch.

The stream below is built so that every path of the step is taken:
warm-up windows (mask 0), whole windows, windows refused because a
level saturates, windows split on an epoch advance in which a later
run — a single-arrival one too — holds a key between the old and the
new threshold (only the live re-filter gets that right), and windows
cut short by a checkpoint.  All runs here are in-process (columnar).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import ResidualHeavyHitterTracker
from repro.core import DistributedWeightedSWOR, SworConfig, SworSite
from repro.core.coordinator import SworCoordinator
from repro.core.site import _WindowPrep
from repro.net.messages import EARLY, EPOCH_UPDATE, REGULAR, Message, MessagePack
from repro.runtime import ColumnarEngine
from repro.runtime.columnar import GroupedWindow
from repro.stream import ColumnarStream, Item

N = 40_000
K = 16  # with s = 4: r = 4
CHECKPOINTS = [9_001, 20_011, 31_337]


def _stream(seed: int = 4) -> ColumnarStream:
    """Heavy-tailed weights (high levels stay open, so earlies keep
    arriving) over a skewed site assignment (tail sites get single
    arrivals in small windows)."""
    gen = np.random.Generator(np.random.PCG64(seed))
    weights = np.minimum(gen.random(N) ** (-1.0 / 1.1), 1e6)
    share = np.arange(1, K + 1, dtype=np.float64) ** -1.5
    sites = gen.choice(K, size=N, p=share / share.sum())
    return ColumnarStream(np.arange(N), weights, sites, K)


class _Spy:
    """Records which path of the step each window took, through
    class-level wrappers."""

    def __init__(self, monkeypatch) -> None:
        self.warmup = 0  # windows the pass took with mask 0
        self.refused = 0  # windows can_park refused
        self.whole = 0
        self.split = 0
        self.trimmed = 0  # pass keys in (window-start, live] threshold
        self.single_trimmed = 0  # ... of single-arrival runs
        self.stepped_at: list = []  # window length of each stepped window
        spy = self
        prepare = SworSite.prepare_window
        can_park = SworCoordinator.can_park
        folds_quietly = SworCoordinator.folds_quietly
        run_results = _WindowPrep.run_results

        def prepare_window(site, window, runs=None, can_park=None):
            prep = prepare(site, window, runs, can_park)
            if prep:
                spy.warmup += site._saturated_mask == 0
                spy.stepped_at.append(len(window.weights))
            return prep

        def can_park_spy(coordinator, early_levels):
            admitted = can_park(coordinator, early_levels)
            spy.refused += not admitted
            return admitted

        def folds_quietly_spy(coordinator, pack):
            quiet = folds_quietly(coordinator, pack)
            spy.whole += quiet
            spy.split += not quiet
            return quiet

        def run_results_spy(prep, pack, runs):
            delivered = []  # (site_id, threshold once its result landed)
            for site_id, result in run_results(prep, pack, runs):
                yield site_id, result
                delivered.append((site_id, runs[0][1]._threshold))
            bounds = np.searchsorted(prep.candidates, prep.regular_bounds)
            keys = prep.regular_keys[prep.candidates]
            for j, (site_id, _, start, end) in enumerate(runs):
                live = max(
                    (t for s, t in delivered if s < site_id),
                    default=prep.threshold,
                )
                run_keys = keys[bounds[j] : bounds[j + 1]]
                trimmed = int(np.count_nonzero(run_keys <= live))
                spy.trimmed += trimmed
                spy.single_trimmed += trimmed if end - start == 1 else 0

        monkeypatch.setattr(SworSite, "prepare_window", prepare_window)
        monkeypatch.setattr(SworCoordinator, "can_park", can_park_spy)
        monkeypatch.setattr(SworCoordinator, "folds_quietly", folds_quietly_spy)
        monkeypatch.setattr(_WindowPrep, "run_results", run_results_spy)


def _state(proto, checkpoints):
    coordinator = proto.coordinator
    return (
        tuple((i.ident, i.weight, key) for i, key in proto.sample_with_keys()),
        proto.counters.snapshot(),
        [
            (s.items_seen, s.exponentials_generated, s._gen.bit_generator.state)
            for s in proto.sites
        ],
        coordinator._gen.bit_generator.state,
        coordinator.levels.snapshot_state(),
        coordinator.epochs.snapshot_state(),
        checkpoints,
    )


def _run(stream, protocol: str, batch_size):
    engine = (
        ColumnarEngine()
        if batch_size is None
        else ColumnarEngine(batch_size=batch_size)
    )
    if protocol == "swor":
        # Seed 7: a mid-window EPOCH_UPDATE trims a single-arrival run
        # (at batch size 64, 3 of seeds 1-12 do).
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=K, sample_size=4), seed=7, engine=engine
        )
    else:
        proto = ResidualHeavyHitterTracker(K, 0.2, seed=11, engine=engine).protocol
    checkpoints = []
    proto.run(
        stream,
        checkpoints=CHECKPOINTS,
        on_checkpoint=lambda t: checkpoints.append(
            (t, tuple((i.ident, key) for i, key in proto.sample_with_keys()))
        ),
    )
    return _state(proto, checkpoints), engine.last_run_stats


def _step_and_per_site(monkeypatch, protocol, batch_size):
    stream = _stream()
    with monkeypatch.context() as patch:
        spy = _Spy(patch)
        stepped, stats = _run(stream, protocol, batch_size)
    with monkeypatch.context() as patch:
        # The step off: no pass, so every site runs its own on_columns.
        patch.setattr(SworSite, "prepare_window", lambda self, *args: None)
        per_site, off_stats = _run(stream, protocol, batch_size)
    assert stepped == per_site
    assert sum(seen for seen, _, _ in stepped[2]) == N
    assert off_stats["windows_per_site"] == off_stats["windows"]
    assert off_stats["windows_whole"] == off_stats["windows_split"] == 0
    return spy, stats


BATCH_SIZES = pytest.mark.parametrize(
    "batch_size", [64, 1024, None], ids=["64", "1024", "default"]
)


@BATCH_SIZES
def test_window_pass_equals_per_site_path(monkeypatch, batch_size):
    spy, stats = _step_and_per_site(monkeypatch, "swor", batch_size)
    assert spy.whole > 0 and spy.warmup > 0
    assert spy.whole == stats["windows_whole"]
    assert spy.split == stats["windows_split"]


@BATCH_SIZES
def test_window_pass_equals_per_site_path_hh(monkeypatch, batch_size):
    spy, stats = _step_and_per_site(monkeypatch, "hh", batch_size)
    assert spy.whole > 0 and spy.warmup > 0
    assert spy.whole == stats["windows_whole"]


def test_every_path_of_the_step_runs(monkeypatch):
    """At batch size 64 the stream takes every path: whole, split with
    trimmed keys (in a single-arrival run too), refused, warm-up and
    checkpoint-cut windows; the run stats count them."""
    spy, stats = _step_and_per_site(monkeypatch, "swor", 64)
    assert spy.whole > 0
    assert spy.split > 0
    assert spy.trimmed > 0  # a mid-window EPOCH_UPDATE trimmed a later run
    assert spy.single_trimmed > 0  # ... and a single-arrival one
    assert spy.refused > 0
    assert spy.warmup > 0
    assert any(size != 64 for size in spy.stepped_at)  # cut by a checkpoint
    counts = (
        stats["windows_whole"],
        stats["windows_split"],
        stats["windows_per_site"],
    )
    assert sum(counts) == stats["windows"]
    assert all(count > 0 for count in counts)
    assert counts[:2] == (spy.whole, spy.split)


@pytest.mark.parametrize("protocol", ["swor", "hh"])
def test_window_folded_whole_runs_the_fused_fold_once(monkeypatch, protocol):
    """``folds_quietly`` computes the window's fused fold, and the pack
    fold that follows reuses it: one ``swor_fold_regulars`` call per
    window folded whole, counted across both modules that call the
    kernel."""
    from repro.core import coordinator as coordinator_mod
    from repro.core import epochs as epochs_mod

    kernel_calls = [0]
    for module in (coordinator_mod, epochs_mod):
        kernel = module.swor_fold_regulars

        def counted(*args, kernel=kernel):
            kernel_calls[0] += 1
            return kernel(*args)

        monkeypatch.setattr(module, "swor_fold_regulars", counted)
    per_window = []  # kernel calls of each window folded whole
    started = []
    folds_quietly = SworCoordinator.folds_quietly
    on_message_pack = SworCoordinator.on_message_pack

    def folds_quietly_spy(coordinator, pack):
        before = kernel_calls[0]
        quiet = folds_quietly(coordinator, pack)
        if quiet and pack.regular_keys is not None:
            started.append(before)
        return quiet

    def on_message_pack_spy(coordinator, site_id, pack):
        out = on_message_pack(coordinator, site_id, pack)
        if started:
            per_window.append(kernel_calls[0] - started.pop())
        return out

    monkeypatch.setattr(SworCoordinator, "folds_quietly", folds_quietly_spy)
    monkeypatch.setattr(SworCoordinator, "on_message_pack", on_message_pack_spy)
    _, stats = _run(_stream(), protocol, None)
    assert len(per_window) > 0 and not started
    assert len(per_window) <= stats["windows_whole"]
    assert per_window == [1] * len(per_window)


@pytest.mark.parametrize("protocol", ["swor", "hh"])
def test_window_folded_whole_checks_admission_once(monkeypatch, protocol):
    """``can_park`` admits a window's earlies before the pass, and the
    pack fold of that window parks them without checking again: one
    ``LevelSetManager.admits`` call per window folded whole."""
    from repro.core.levels import LevelSetManager
    from repro.runtime import columnar as columnar_mod

    calls = [0]
    admits = LevelSetManager.admits

    def counted(levels, early_levels):
        calls[0] += 1
        return admits(levels, early_levels)

    monkeypatch.setattr(LevelSetManager, "admits", counted)
    per_window = []  # admits calls of each window folded whole
    run_window = columnar_mod.run_window

    def run_window_spy(network, window, can_park=None):
        before = calls[0]
        path = run_window(network, window, can_park)
        if path == columnar_mod.WHOLE:
            per_window.append(calls[0] - before)
        return path

    monkeypatch.setattr(columnar_mod, "run_window", run_window_spy)
    _, stats = _run(_stream(), protocol, None)
    assert len(per_window) == stats["windows_whole"] > 0
    assert per_window == [1] * len(per_window)


def test_profile_prints_window_step_counts():
    engine = ColumnarEngine(batch_size=256)
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=K, sample_size=4), seed=11, engine=engine
    )
    proto.run(_stream())
    stats = engine.last_run_stats
    assert (
        f"window step: {stats['windows_whole']} folded whole, "
        f"{stats['windows_split']} split on an epoch advance, "
        f"{stats['windows_per_site']} per site"
    ) in engine.format_stats()


def test_wrapped_deliver_pack_keeps_per_site_packs(monkeypatch):
    """An instance-wrapped ``deliver_pack`` instruments delivery: the
    engine keeps its per-site loop, so the wrapper sees one pack per
    sending site per window, and the run ends where the unwrapped one
    does."""
    site_packs = []
    on_columns = SworSite.on_columns

    def counted(site, idents, weights):
        result = on_columns(site, idents, weights)
        if isinstance(result, MessagePack) and len(result):
            site_packs.append(site.site_id)
        return result

    def run(wrap):
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=K, sample_size=4),
            seed=11,
            engine=ColumnarEngine(batch_size=1024),
        )
        network = proto.network
        calls, windows = [], [0]
        if wrap:
            deliver_pack = network.deliver_pack

            def wrapped(site_id, pack):
                calls.append((windows[0], site_id, len(pack)))
                return deliver_pack(site_id, pack)

            network.deliver_pack = wrapped
        proto.run(_stream(), on_step=lambda t: windows.__setitem__(0, t))
        return _state(proto, []), proto.engine.last_run_stats, calls

    plain, plain_stats, _ = run(False)
    monkeypatch.setattr(SworSite, "on_columns", counted)
    wrapped, stats, calls = run(True)
    assert wrapped == plain
    assert [site_id for _, site_id, _ in calls] == site_packs
    assert plain_stats["windows_whole"] > 0
    assert stats["windows_per_site"] == stats["windows"]
    per_window = {}
    for window, site_id, size in calls:
        assert size > 0
        per_window.setdefault(window, []).append(site_id)
    # One call per sending site per window, in ascending site order.
    assert all(ids == sorted(set(ids)) for ids in per_window.values())
    assert len(calls) > 2 * len(per_window)


def test_prepare_window_without_runs_draws_nothing():
    """Without the window's runs there is no pass: nothing is drawn or
    booked, and the caller takes the per-site path."""
    config = SworConfig(num_sites=2, sample_size=2)
    site = SworSite(0, config, np.random.default_rng(1))
    site._saturated_mask = 0b1111
    state = site._gen.bit_generator.state
    window = GroupedWindow(
        np.arange(4, dtype=np.int64), np.array([2.0, 3.0, 2.5, 3.5]), [0], [0], [4]
    )
    assert site.prepare_window(window) is None
    assert site.items_seen == 0
    assert site._gen.bit_generator.state == state


def test_window_pack_is_the_concatenated_site_packs():
    """On window-start state the window pack holds every run's early
    entries, then every run's regulars, in site order — what the
    per-site ``on_columns`` calls send, concatenated by kind."""
    config = SworConfig(num_sites=3, sample_size=2)  # r = 2
    gen = np.random.Generator(np.random.PCG64(9))
    weights = gen.random(30) * 20 + 1
    idents = np.arange(30, dtype=np.int64)

    def runs_of(sites):
        return [(j, sites[j], 10 * j, 10 * j + 10) for j in range(3)]

    stepped = [SworSite(j, config, np.random.default_rng(j)) for j in range(3)]
    solo = [SworSite(j, config, np.random.default_rng(j)) for j in range(3)]
    for site in stepped + solo:
        site._saturated_mask = 0b111  # levels 0-2 saturated, 3-4 open
        site._threshold = 8.0
    window = GroupedWindow(idents, weights, [0, 1, 2], [0, 10, 20], [10, 20, 30])
    prep = stepped[0].prepare_window(window, runs_of(stepped))
    pack = prep.window_pack(idents, weights)
    site_packs = [
        site.on_columns(idents[10 * j : 10 * j + 10], weights[10 * j : 10 * j + 10])
        for j, site in enumerate(solo)
    ]
    site_packs = [p for p in site_packs if isinstance(p, MessagePack)]
    messages = [m for p in site_packs for m in p.messages()]
    early = [m for m in messages if m.kind == EARLY]
    assert pack.messages() == early + [m for m in messages if m.kind != EARLY]
    assert pack.num_early > 0 and pack.num_regular > 0
    results = list(prep.run_results(pack, runs_of(stepped)))
    assert [r.messages() for _, r in results] == [p.messages() for p in site_packs]
    for a, b in zip(stepped, solo):
        assert a.snapshot_state() == b.snapshot_state()


@pytest.mark.parametrize("above", [True, False])
def test_single_arrival_run_refiltered_against_live_threshold(above):
    """A threshold raised before a one-arrival run — an ``EPOCH_UPDATE``
    from an earlier run's fold — re-filters the run's pass key: just
    above the key the run sends nothing, just below it sends the
    one-entry pack ``on_item`` sends from the same state.  The other
    runs' packs do not change."""
    config = SworConfig(num_sites=3, sample_size=2)  # r = 2
    gen = np.random.Generator(np.random.PCG64(7))
    weights = gen.random(21) * 30 + 1  # levels 0-4
    idents = np.arange(21, dtype=np.int64)
    sites = [SworSite(j, config, np.random.default_rng(j)) for j in range(3)]
    for site in sites:
        site._saturated_mask = 0b11111  # every arrival is regular
    twin = SworSite(1, config, np.random.default_rng(0))
    twin.restore_state(sites[1].snapshot_state())
    runs = [(0, sites[0], 0, 10), (1, sites[1], 10, 11), (2, sites[2], 11, 21)]
    window = GroupedWindow(idents, weights, [0, 1, 2], [0, 10, 11], [10, 11, 21])
    prep = sites[0].prepare_window(window, runs)
    pack = prep.window_pack(idents, weights)
    before = {site_id: r.messages() for site_id, r in prep.run_results(pack, runs)}
    assert sorted(before) == [0, 1, 2]  # window-start threshold 0: all send
    key = float(prep.regular_keys[10])
    live = math.nextafter(key, math.inf if above else -math.inf)
    sites[1]._threshold = live
    twin.on_control(Message(EPOCH_UPDATE, (live,)))
    after = {site_id: r.messages() for site_id, r in prep.run_results(pack, runs)}
    assert (after[0], after[2]) == (before[0], before[2])
    weight = float(weights[10])
    sent = twin.on_item(Item(10, weight))
    assert twin._gen.bit_generator.state == sites[1]._gen.bit_generator.state
    if above:
        assert 1 not in after and sent == []
    else:
        assert after[1] == sent == [Message(REGULAR, (10, weight, key))]
