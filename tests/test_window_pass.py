"""The columnar engine's SWOR window step against the per-site path.

Per window pass, ``SworSite.prepare_window`` splits the rest of the
window under the current mask, and the coordinator's pure check
(``SworCoordinator.can_park``) finds the first early that saturates a
level before anything is drawn: the pass draws every run up to and
including that early's run.  The runs before it fold one pack per
*stretch*, the runs between two controls: ``SworCoordinator.folds_quietly``
finds the first regular whose in-order fold would announce an epoch,
its run is delivered alone, and the runs after it are re-filtered at
the live threshold.  The saturating run is delivered alone too, and the
next pass splits the rest of the window under the new mask.  Turning
the step off — no pass, so every site takes its own ``on_columns`` —
must change nothing: not the sample, not the counters, not any site's
``snapshot_state()``, not the coordinator's RNG position, level sets,
epoch or receipt counts.

Two streams drive it.  The skewed one has heavy-tailed weights over a
skewed site assignment: warm-up windows (mask 0), whole windows,
windows cut on an epoch advance in which a later run — a
single-arrival one too — holds a key between the old and the new
threshold (only the live re-filter gets that right), and windows cut
short by a checkpoint.  The levels one spreads weights over 120
levels of ``r = 4`` with falling popularity, so levels saturate one
after another in the first part of the stream: a saturation lands in a window's
first run, in its last, in a single-arrival run, at two runs of one
window, in a run whose fold also announces, and in windows cut short
by a checkpoint.  All runs here are in-process (columnar).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import ResidualHeavyHitterTracker
from repro.core import DistributedWeightedSWOR, SworConfig, SworSite
from repro.core.coordinator import SworCoordinator
from repro.core.levels import LevelSetManager
from repro.core.site import _WindowPrep
from repro.net.messages import (
    EARLY,
    EPOCH_UPDATE,
    LEVEL_SATURATED,
    REGULAR,
    Message,
    MessagePack,
)
from repro.runtime import ColumnarEngine
from repro.runtime import columnar as columnar_mod
from repro.runtime.columnar import GroupedWindow
from repro.stream import ColumnarStream, Item

N = 40_000
K = 16  # with s = 4: r = 4, 64 earlies saturate a level
CHECKPOINTS = [9_001, 20_011, 31_337]
#: The levels stream saturates most of its levels before item 16,000:
#: checkpoints there cut windows that hold saturations.
LEVELS_CHECKPOINTS = [1_337, 3_001, 5_555, 7_001, 9_001, 11_111, 13_331, 20_011]


def _skewed_sites(gen, n: int) -> np.ndarray:
    share = np.arange(1, K + 1, dtype=np.float64) ** -1.5
    return gen.choice(K, size=n, p=share / share.sum())


def _stream(seed: int = 4) -> ColumnarStream:
    """Heavy-tailed weights (high levels stay open, so earlies keep
    arriving) over a skewed site assignment (tail sites get single
    arrivals in small windows)."""
    gen = np.random.Generator(np.random.PCG64(seed))
    weights = np.minimum(gen.random(N) ** (-1.0 / 1.1), 1e6)
    return ColumnarStream(np.arange(N), weights, _skewed_sites(gen, N), K)


def _levels_stream(seed: int = 5) -> ColumnarStream:
    """``log4(w)`` is ``120 U^2``: 120 levels of ``r = 4``, the lower
    ones the more popular, so the levels saturate one after another,
    most within the first 16,000 items, and many a release lifts the
    threshold past a bracket.  Sites are skewed as in :func:`_stream`."""
    gen = np.random.Generator(np.random.PCG64(seed))
    weights = 4.0 ** (120.0 * gen.random(N) ** 2)
    return ColumnarStream(np.arange(N), weights, _skewed_sites(gen, N), K)


STREAMS = {
    "skewed": (_stream, CHECKPOINTS),
    "levels": (_levels_stream, LEVELS_CHECKPOINTS),
}


class _Spy:
    """Records the paths the step took, through class-level wrappers
    (and one on ``run_window``, the engine's window body)."""

    def __init__(self, monkeypatch, marks) -> None:
        self.warmup = 0  # passes with mask 0
        self.stretches = 0  # stretches folded whole (quiet fold checks)
        self.announcing = 0  # runs delivered alone at an epoch advance
        self.saturating = 0  # runs delivered alone at a saturation
        self.single_cut = 0  # ... runs of one arrival among them
        self.single_saturating = 0  # saturating runs of one arrival
        self.trimmed = 0  # pass keys in (pass, live] threshold
        self.single_trimmed = 0  # ... of single-arrival runs
        self.first_run = 0  # saturations in a window's first run
        self.last_run = 0  # ... in its last run
        self.two_runs = 0  # windows with saturations at two runs
        self.saturate_announce = 0  # saturating folds that also announce
        self.cut_twice = 0  # windows cut at least twice
        self.cut_short = 0  # cut windows bounded by a checkpoint
        self.stepped_at: list = []  # length of each stepped window
        self.cuts: list = []  # run_window's result per window
        spy = self
        window_runs: list = []  # the current window's run lengths
        saturated_at: set = set()  # its saturating runs' indices
        last_cut: list = [None]
        prepare = SworSite.prepare_window
        folds_quietly = SworCoordinator.folds_quietly
        on_message_pack = SworCoordinator.on_message_pack
        stretch = _WindowPrep.stretch
        cut = _WindowPrep.cut
        run_window = columnar_mod.run_window

        def run_window_spy(network, window, can_park=None):
            lo = network.items_processed
            hi = lo + len(window.weights)
            window_runs[:] = (np.asarray(window.ends) - window.starts).tolist()
            saturated_at.clear()
            cuts = run_window(network, window, can_park)
            spy.cuts.append(cuts)
            if cuts is not None:
                spy.stepped_at.append(hi - lo)
                spy.cut_twice += cuts >= 2
                spy.cut_short += bool(cuts) and hi in marks
                spy.two_runs += len(saturated_at) >= 2
            return cuts

        def prepare_window(site, window, runs=None, can_park=None):
            prep = prepare(site, window, runs, can_park)
            if prep is not None and runs is not None:
                spy.warmup += site._saturated_mask == 0
                if prep.saturates:
                    index = len(window_runs) - len(runs) + prep.count - 1
                    saturated_at.add(index)
                    spy.first_run += index == 0
                    spy.last_run += index == len(window_runs) - 1
            return prep

        def folds_quietly_spy(coordinator, pack):
            position = folds_quietly(coordinator, pack)
            spy.stretches += position is None and len(pack) > 0
            spy.announcing += position is not None
            return position

        def on_message_pack_spy(coordinator, site_id, pack):
            responses = on_message_pack(coordinator, site_id, pack)
            kinds = {message.kind for _, message in responses}
            spy.saturate_announce += {LEVEL_SATURATED, EPOCH_UPDATE} <= kinds
            return responses

        def cut_spy(prep, a, b, position):
            index = cut(prep, a, b, position)
            last_cut[0] = (prep, index)
            return index

        def stretch_spy(prep, a, b):
            live = prep.site._threshold
            single = b == a + 1 and prep.bounds[b] - prep.bounds[a] == 1
            if live > prep.threshold:
                _, regular_bounds = prep._bounds()
                keys = prep.pack.regular_keys
                for j in range(a, b):
                    run_keys = keys[regular_bounds[j] : regular_bounds[j + 1]]
                    trimmed = int(np.count_nonzero(run_keys <= live))
                    spy.trimmed += trimmed
                    if prep.bounds[j + 1] - prep.bounds[j] == 1:
                        spy.single_trimmed += trimmed
            saturating = prep.saturates and a == prep.count - 1
            if b == a + 1 and (saturating or last_cut[0] == (prep, a)):
                spy.saturating += saturating
                spy.single_cut += single
                spy.single_saturating += saturating and single
            return stretch(prep, a, b)

        monkeypatch.setattr(columnar_mod, "run_window", run_window_spy)
        monkeypatch.setattr(SworSite, "prepare_window", prepare_window)
        monkeypatch.setattr(SworCoordinator, "folds_quietly", folds_quietly_spy)
        monkeypatch.setattr(SworCoordinator, "on_message_pack", on_message_pack_spy)
        monkeypatch.setattr(_WindowPrep, "cut", cut_spy)
        monkeypatch.setattr(_WindowPrep, "stretch", stretch_spy)


def _state(proto, checkpoints):
    """Sample, counters, every site's ``snapshot_state()`` and the
    coordinator's generator, level sets, epochs and receipt counts.
    (``regular_accepted`` and ``S``'s arrival counters count per fold,
    so they legitimately differ between a stretch and its runs.)"""
    coordinator = proto.coordinator
    return (
        tuple((i.ident, i.weight, key) for i, key in proto.sample_with_keys()),
        proto.counters.snapshot(),
        [s.snapshot_state() for s in proto.sites],
        coordinator._gen.bit_generator.state,
        coordinator.levels.snapshot_state(),
        coordinator.epochs.snapshot_state(),
        (
            coordinator.early_received,
            coordinator.early_for_saturated,
            coordinator.regular_received,
        ),
        checkpoints,
    )


def _run(stream, protocol: str, batch_size, checkpoints=CHECKPOINTS):
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
    answers = []
    proto.run(
        stream,
        checkpoints=checkpoints,
        on_checkpoint=lambda t: answers.append(
            (t, tuple((i.ident, key) for i, key in proto.sample_with_keys()))
        ),
    )
    return _state(proto, answers), engine.last_run_stats


def _step_and_per_site(monkeypatch, protocol, batch_size, stream="skewed"):
    make, checkpoints = STREAMS[stream]
    columns = make()
    with monkeypatch.context() as patch:
        spy = _Spy(patch, set(checkpoints))
        stepped, stats = _run(columns, protocol, batch_size, checkpoints)
    with monkeypatch.context() as patch:
        # The step off: no pass, so every site runs its own on_columns.
        patch.setattr(SworSite, "prepare_window", lambda self, *args: None)
        per_site, off_stats = _run(columns, protocol, batch_size, checkpoints)
    assert stepped == per_site
    assert sum(snapshot[3] for snapshot in stepped[2]) == N  # items_seen
    assert off_stats["windows_per_site"] == off_stats["windows"]
    assert off_stats["windows_whole"] == off_stats["windows_split"] == 0
    assert stats["windows_per_site"] == 0
    assert stats["windows_whole"] + stats["windows_split"] == stats["windows"]
    assert stats["windows_split"] == sum(1 for cuts in spy.cuts if cuts)
    assert stats["cut_runs"] == sum(spy.cuts)
    assert stats["cut_runs"] == spy.announcing + spy.saturating
    return spy, stats


BATCH_SIZES = pytest.mark.parametrize(
    "batch_size", [64, 1024, None], ids=["64", "1024", "default"]
)


@BATCH_SIZES
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_window_pass_equals_per_site_path(monkeypatch, batch_size, stream):
    spy, stats = _step_and_per_site(monkeypatch, "swor", batch_size, stream)
    assert spy.stretches > 0 and spy.warmup > 0
    if stream == "levels":
        assert spy.saturating > 0 and spy.saturate_announce > 0


@BATCH_SIZES
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_window_pass_equals_per_site_path_hh(monkeypatch, batch_size, stream):
    spy, stats = _step_and_per_site(monkeypatch, "hh", batch_size, stream)
    assert spy.stretches > 0 and spy.warmup > 0
    assert spy.saturating > 0


def test_every_path_of_the_step_runs(monkeypatch):
    """At batch size 64 the skewed stream takes every path of an epoch
    advance: stretches folded whole, runs delivered alone (a
    single-arrival one too), keys trimmed by the live re-filter (in a
    single-arrival run too), windows cut twice, warm-up and
    checkpoint-cut windows; the run stats count them."""
    spy, stats = _step_and_per_site(monkeypatch, "swor", 64)
    assert spy.stretches > 0
    assert spy.announcing > 0
    assert spy.saturating > 0
    assert spy.single_cut > 0  # a one-arrival run delivered alone
    assert spy.trimmed > 0  # a mid-window EPOCH_UPDATE trimmed a later run
    assert spy.single_trimmed > 0  # ... and a single-arrival one
    assert spy.cut_twice > 0
    assert spy.warmup > 0
    assert any(size != 64 for size in spy.stepped_at)  # cut by a checkpoint
    assert stats["windows_whole"] > 0 and stats["windows_split"] > 0


def test_every_kind_of_saturation_cut_runs(monkeypatch):
    """At batch size 64 the levels stream saturates a level in a
    window's first run, in its last run, in a single-arrival run, at
    two runs of one window, in a run whose fold also announces, and in
    windows a checkpoint cut short — each equal to the per-site loop
    in full state."""
    spy, stats = _step_and_per_site(monkeypatch, "swor", 64, "levels")
    assert spy.first_run > 0
    assert spy.last_run > 0
    assert spy.single_saturating > 0
    assert spy.two_runs > 0
    assert spy.saturate_announce > 0
    assert spy.cut_short > 0
    assert stats["cut_runs"] >= spy.saturating > 0


@pytest.mark.parametrize("protocol", ["swor", "hh"])
def test_run_record_counts_cuts(protocol):
    """On a stream whose levels saturate, no window of the step leaves
    the per-site loop, every window is folded whole or cut, and each
    cut window delivers at least one run alone."""
    _, stats = _run(_levels_stream(), protocol, 1024, LEVELS_CHECKPOINTS)
    assert stats["windows_per_site"] == 0
    assert stats["windows_whole"] + stats["windows_split"] == stats["windows"]
    assert stats["cut_runs"] >= stats["windows_split"] > 0


@pytest.mark.parametrize("protocol", ["swor", "hh"])
def test_window_folded_whole_runs_the_fused_fold_once(monkeypatch, protocol):
    """``folds_quietly`` computes a quiet stretch's fused fold, and the
    pack fold that follows reuses it: one ``swor_fold_regulars`` call
    per stretch folded whole, counted across both modules that call
    the kernel."""
    from repro.core import coordinator as coordinator_mod
    from repro.core import epochs as epochs_mod

    kernel_calls = [0]
    for module in (coordinator_mod, epochs_mod):
        kernel = module.swor_fold_regulars

        def counted(*args, kernel=kernel):
            kernel_calls[0] += 1
            return kernel(*args)

        monkeypatch.setattr(module, "swor_fold_regulars", counted)
    per_stretch = []  # kernel calls of each stretch folded whole
    started = []
    folds_quietly = SworCoordinator.folds_quietly
    on_message_pack = SworCoordinator.on_message_pack

    def folds_quietly_spy(coordinator, pack):
        before = kernel_calls[0]
        position = folds_quietly(coordinator, pack)
        if position is None and pack.regular_keys is not None:
            started.append(before)
        return position

    def on_message_pack_spy(coordinator, site_id, pack):
        out = on_message_pack(coordinator, site_id, pack)
        if started:
            per_stretch.append(kernel_calls[0] - started.pop())
        return out

    monkeypatch.setattr(SworCoordinator, "folds_quietly", folds_quietly_spy)
    monkeypatch.setattr(SworCoordinator, "on_message_pack", on_message_pack_spy)
    _, stats = _run(_stream(), protocol, None)
    assert per_stretch and not started and stats["windows_whole"] > 0
    assert per_stretch == [1] * len(per_stretch)


@pytest.mark.parametrize("protocol", ["swor", "hh"])
def test_window_folded_whole_checks_admission_once(monkeypatch, protocol):
    """``can_park`` checks a window's earlies before the pass, and the
    pack fold of a window folded whole parks them without checking
    again: one ``LevelSetManager.first_refused`` call per window folded
    whole."""
    calls = [0]
    first_refused = LevelSetManager.first_refused

    def counted(levels, early_levels):
        calls[0] += 1
        return first_refused(levels, early_levels)

    monkeypatch.setattr(LevelSetManager, "first_refused", counted)
    per_window = []  # first_refused calls of each window folded whole
    run_window = columnar_mod.run_window

    def run_window_spy(network, window, can_park=None):
        before = calls[0]
        cuts = run_window(network, window, can_park)
        if cuts == 0:
            per_window.append(calls[0] - before)
        return cuts

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
    assert stats["cut_runs"] > 0
    assert (
        f"window step: {stats['windows_whole']} folded whole, "
        f"{stats['windows_split']} cut at a control "
        f"({stats['cut_runs']} runs delivered alone), "
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
    """On the state at the pass, the window pack holds every run's
    early entries, then every run's regulars, in site order — what the
    per-site ``on_columns`` calls send, concatenated by kind — and each
    run's stretch alone is its own ``on_columns`` pack."""
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
    pack = prep.pack
    site_packs = [
        site.on_columns(idents[10 * j : 10 * j + 10], weights[10 * j : 10 * j + 10])
        for j, site in enumerate(solo)
    ]
    site_packs = [p for p in site_packs if isinstance(p, MessagePack)]
    messages = [m for p in site_packs for m in p.messages()]
    early = [m for m in messages if m.kind == EARLY]
    assert pack.messages() == early + [m for m in messages if m.kind != EARLY]
    assert pack.num_early > 0 and pack.num_regular > 0
    assert prep.stretch(0, prep.count) is pack
    results = list(prep.run_packs(runs_of(stepped)))
    assert [r.messages() for _, r in results] == [p.messages() for p in site_packs]
    for a, b in zip(stepped, solo):
        assert a.snapshot_state() == b.snapshot_state()


def test_pass_stops_at_the_saturating_run():
    """When ``can_park`` names an early, the pass draws the runs up to
    and including that early's run and nothing past it; the runs after
    it keep their generators and ``items_seen`` for the next pass."""
    config = SworConfig(num_sites=3, sample_size=2)  # r = 2
    weights = np.array([1.0, 5.0, 1.5, 3.0, 6.0, 1.2, 7.0, 2.5, 1.1])
    idents = np.arange(9, dtype=np.int64)
    sites = [SworSite(j, config, np.random.default_rng(j)) for j in range(3)]
    for site in sites:
        site._saturated_mask = 0b1  # level 0 saturated, 1-2 open
    runs = [(0, sites[0], 0, 3), (1, sites[1], 3, 6), (2, sites[2], 6, 9)]
    window = GroupedWindow(idents, weights, [0, 1, 2], [0, 3, 6], [3, 6, 9])
    states = [site.snapshot_state() for site in sites]
    # Earlies at positions 1, 3, 4, 6, 7 (levels 2, 1, 2, 2, 1): refuse
    # the third early, which sits in run 1.
    prep = sites[0].prepare_window(window, runs, lambda levels: 2)
    assert (prep.count, prep.saturates) == (2, True)
    assert prep.bounds == [0, 3, 6]
    assert sites[2].snapshot_state() == states[2]
    assert [site.items_seen for site in sites] == [3, 3, 0]
    assert len(prep.regular_keys) == 3  # items 0, 2 and 5
    assert prep.stretch(1, 2).messages()[:2] == [
        Message(EARLY, (3, 3.0)),
        Message(EARLY, (4, 6.0)),
    ]
    rest = sites[0].prepare_window(window, runs[2:], lambda levels: None)
    assert (rest.count, rest.saturates, rest.bounds) == (1, False, [0, 3])
    assert [site.items_seen for site in sites] == [3, 3, 3]


@pytest.mark.parametrize("above", [True, False])
def test_single_arrival_run_refiltered_against_live_threshold(above):
    """A threshold raised after the pass — an ``EPOCH_UPDATE`` from an
    earlier run's fold, broadcast to every site — re-filters the pass
    key of a one-arrival run: just above the key the run sends
    nothing, just below it sends the one-entry pack ``on_item`` sends
    from the same state.  The other runs' stretches keep exactly their
    keys above the live threshold."""
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
    before = {j: prep.stretch(j, j + 1).messages() for j in range(3)}
    assert all(before.values())  # threshold 0 at the pass: all send
    key = float(prep.regular_keys[10])
    live = math.nextafter(key, math.inf if above else -math.inf)
    for site in sites:
        site.on_control(Message(EPOCH_UPDATE, (live,)))
    twin.on_control(Message(EPOCH_UPDATE, (live,)))
    after = {j: prep.stretch(j, j + 1).messages() for j in range(3)}
    for j in (0, 2):
        assert after[j] == [m for m in before[j] if m.payload[2] > live]
    weight = float(weights[10])
    sent = twin.on_item(Item(10, weight))
    assert twin._gen.bit_generator.state == sites[1]._gen.bit_generator.state
    if above:
        assert after[1] == sent == []
    else:
        assert after[1] == sent == [Message(REGULAR, (10, weight, key))]
