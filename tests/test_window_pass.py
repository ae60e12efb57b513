"""The SWOR window pass against the per-site path it replaces.

``SworSite.prepare_window`` draws the keys of every early-free run (a
site's slice of a window with at least 2 arrivals, none in a level the
window-start mask leaves unsaturated) into one window-length column,
finishes the runs with no key above the lowest window-start threshold,
and leaves the rest to an ``on_columns`` call that re-filters against
the live threshold.  Turning the pass off must change nothing: not the
sample, not the counters, not any site's ``items_seen`` or
``exponentials_generated``.  The stream below is built so that every
branch the pass decides is taken in steady state (mask not 0): runs
with earlies, single-arrival runs, finished runs, and — the case only
the live re-filter gets right — an ``EPOCH_UPDATE`` that fires
mid-window while a later early-free run holds a key between the old
and the new threshold.  All runs here are in-process (columnar).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import DistributedWeightedSWOR, SworConfig, SworSite
from repro.runtime import ColumnarEngine
from repro.stream import ColumnarStream

N = 40_000
K = 16  # with s = 4: r = 4


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
    """Counts what the pass decided, through class-level wrappers."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        self.open_windows = 0  # mask != 0, yet some arrival early
        self.single_runs = 0  # one-arrival runs with mask != 0
        self.refiltered = 0  # drawn keys in (window-start, live] threshold
        self.window_threshold = 0.0
        prepare, on_columns = SworSite.prepare_window, SworSite.on_columns
        spy = self

        def prepare_window(site, weights, runs=None):
            prep = prepare(site, weights, runs)
            if runs and prep is not None and prep.mask:
                spy.window_threshold = min(s._threshold for _, s, _, _ in runs)
                spy.open_windows += not prep.all_saturated
                spy.single_runs += sum(e - s == 1 for _, _, s, e in runs)
            return prep

        def on_columns_spy(site, idents, weights, prep=None):
            spy.calls += 1
            if prep is not None and prep[1] in prep[0].drawn:
                keys = prep[0].keys[prep[1] : prep[2]]
                spy.refiltered += int(
                    np.count_nonzero(
                        (keys > spy.window_threshold)
                        & (keys <= site._threshold)
                    )
                )
            return on_columns(site, idents, weights, prep)

        monkeypatch.setattr(SworSite, "prepare_window", prepare_window)
        monkeypatch.setattr(SworSite, "on_columns", on_columns_spy)


def _run(stream, batch_size: int):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=K, sample_size=4),
        seed=11,
        engine=ColumnarEngine(batch_size=batch_size),
    )
    counters = proto.run(stream)
    return (
        tuple((i.ident, i.weight, key) for i, key in proto.sample_with_keys()),
        counters.snapshot(),
        [(s.items_seen, s.exponentials_generated) for s in proto.sites],
    )


@pytest.mark.parametrize("batch_size", [64, 1024])
def test_window_pass_equals_per_site_path(monkeypatch, batch_size):
    stream = _stream()
    with monkeypatch.context() as patch:
        spy = _Spy(patch)
        with_pass = _run(stream, batch_size)
    with monkeypatch.context() as patch:
        patch.setattr(
            SworSite, "_draw_early_free", staticmethod(lambda *args: None)
        )
        off = _Spy(patch)
        per_site = _run(stream, batch_size)
    assert with_pass == per_site
    assert sum(seen for seen, _ in with_pass[2]) == N
    # Every branch of the pass ran in steady state.
    assert spy.calls < off.calls  # runs finished in the pass
    assert spy.refiltered > 0  # a mid-window EPOCH_UPDATE trimmed a run
    assert spy.open_windows > 0  # runs with earlies kept the per-site path
    assert spy.single_runs > 0  # one-arrival runs kept the scalar path
    assert off.refiltered == 0


def test_prepare_window_without_runs_draws_nothing():
    """Callers without the window's runs (the multi-query driver, the
    sharded rollback suffix) get the shared levels only."""
    config = SworConfig(num_sites=2, sample_size=2)
    site = SworSite(0, config, random.Random(1))
    site._saturated_mask = 0b1111
    prep = site.prepare_window(np.array([2.0, 3.0, 2.5, 3.5]))
    assert prep.runs is None and prep.keys is None and not prep.drawn
    assert site.items_seen == 0 and site._batch_rng is None
