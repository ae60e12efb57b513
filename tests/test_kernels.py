"""The six kernels of :mod:`repro.kernels`, each against a scalar oracle.

Every kernel is a pure column transform, so each one is pinned by an
independent scalar computation of what it must return — the same
floats, the same integer counts, the same index sets in the same
order — on adversarial fixtures: ties exactly at the selection cut,
plateaus, empty and singleton packs, the 256-wide rank block, power
boundaries up to the top of the float range and saturation storms.

* ``merge_cut`` — a ``sorted()`` order statistic plus a tie count;
* ``swor_fold_regulars`` — a scalar threshold filter and top-``s``
  selection, and sequential ``on_message`` delivery through the
  coordinator (:class:`TestCoordinatorFusedFold`);
* ``swr_min_fold`` — the first argmin per sampler;
* ``window_dominators`` — a brute-force count;
* ``compute_levels`` and ``window_split`` — :func:`level_of` per weight
  plus a saturation-table lookup (weights outside the domain never
  reach them: ingest rejects them, see ``tests/test_columnar_runtime.py``
  ``TestInvalidWeights``).
"""

from __future__ import annotations

import math
import random
import sys

import pytest

from repro.common.rng import MAX_WEIGHT
from repro.core import DistributedWeightedSWOR, SworConfig, level_of
from repro.core import epochs as epochs_mod
from repro.core.coordinator import SworCoordinator
from repro.kernels import (
    compute_levels,
    merge_cut,
    swor_fold_regulars,
    swr_min_fold,
    window_dominators,
    window_split,
)
from repro.net.messages import MessagePack
from repro.runtime import ColumnarEngine, get_engine
from repro.stream import Item, round_robin

np = pytest.importorskip("numpy")

#: Finite weights whose upper bracket ``r^(j+1)`` overflows a float at
#: small ``r``: the top of the float range.
FLOAT_TOP = [2.0**1023, 1e308, sys.float_info.max]


def _key_fixtures(rng):
    """Adversarial key columns: ties, plateaus, empties, singletons."""
    dense = np.round(rng.uniform(0.0, 4.0, 200), 1)  # heavy tie mass
    return [
        np.array([], dtype=np.float64),
        np.array([2.5]),
        np.full(17, 3.0),  # every key ties
        np.array([5.0, 1.0, 5.0, 5.0, 2.0, 1.0, 5.0]),
        dense,
        rng.uniform(0.0, 100.0, 513),  # crosses the 256-wide rank block
        np.sort(rng.uniform(0.0, 10.0, 300)),
        np.sort(rng.uniform(0.0, 10.0, 300))[::-1].copy(),
    ]


def _power(r, j):
    """``r ** j``, or ``+inf`` where the power overflows a float."""
    try:
        return r**j
    except OverflowError:
        return float("inf")


def _dominator_caps(n):
    """Caps for ``window_dominators``: tiny, typical, and one above any
    possible count (so the capped kernel must return exact counts)."""
    return (1, 2, 5, 64, n + 1)


# -- scalar oracles -----------------------------------------------------


def _merge_cut_oracle(old_keys, cand_keys, s):
    """The ``s``-th largest merged key and how many merged keys equal it."""
    merged = sorted(old_keys.tolist() + cand_keys.tolist())
    cut = merged[len(merged) - s]
    return cut, merged.count(cut)


def _swor_fold_oracle(keys, threshold, old_keys, s):
    """Candidates strictly above ``threshold``; of those, the ones at or
    above the ``s``-th largest merged key (all of them while the merged
    set holds fewer than ``s`` keys, with cut ``0.0``)."""
    surv = [i for i, key in enumerate(keys.tolist()) if key > threshold]
    if len(old_keys) + len(surv) < s:
        return surv, surv, 0.0, 1
    cut, at_cut = _merge_cut_oracle(old_keys, keys[surv], s)
    kept = [i for i in surv if keys[i] >= cut]
    return surv, kept, cut, at_cut


def _swr_min_fold_oracle(samplers, keys):
    """Each sampler's first argmin, by ascending sampler id."""
    best = {}
    for i, (sid, key) in enumerate(zip(samplers.tolist(), keys.tolist())):
        if sid not in best or key < keys[best[sid]]:
            best[sid] = i
    return [best[sid] for sid in sorted(best)]


def _brute_dominators(keys, cap):
    """``min(cap, #{j > i : keys[j] > keys[i]})`` by brute force."""
    return [
        min(cap, int((keys[i + 1:] > keys[i]).sum())) for i in range(len(keys))
    ]


def _window_split_oracle(weights, r, heavy_floor, table):
    """``level_of`` per weight at or above the floor plus the table
    lookup; weights below a positive floor keep the saturated level-0
    placeholder."""
    levels, saturated = [], []
    for w in weights.tolist():
        if heavy_floor > 0.0 and w < heavy_floor:
            levels.append(0)
            saturated.append(True)
            continue
        j = level_of(w, r)
        levels.append(j)
        saturated.append(j < len(table) and bool(table[j]))
    early = [i for i, sat in enumerate(saturated) if not sat]
    return levels, saturated, early


def _assert_fold(keys, threshold, old, s):
    got = swor_fold_regulars(keys, threshold, old, s)
    want = _swor_fold_oracle(keys, threshold, old, s)
    assert got[0].tolist() == want[0]
    assert got[1].tolist() == want[1]
    assert (got[2], got[3]) == (want[2], want[3])


class TestKernelOracles:
    def test_merge_cut_including_boundary_ties(self):
        rng = np.random.default_rng(42)
        for cand in _key_fixtures(rng):
            for h in (0, 1, 4, 16):
                old = np.round(rng.uniform(0.0, 4.0, h), 1)
                for s in (1, 2, 5, 16):
                    if h + len(cand) < s:
                        continue
                    assert merge_cut(old, cand, s) == _merge_cut_oracle(
                        old, cand, s
                    )

    def test_swor_fold_regulars(self):
        rng = np.random.default_rng(7)
        for keys in _key_fixtures(rng):
            for threshold in (0.0, 1.0, 2.5, 3.0, 1e9):
                for h in (0, 2, 8):
                    old = np.round(rng.uniform(threshold, threshold + 4.0, h), 1)
                    for s in (1, 4, 10):
                        _assert_fold(keys, threshold, old, s)

    def test_swr_min_fold_first_arrival_wins_ties(self):
        rng = np.random.default_rng(3)
        cases = [
            (np.array([0]), np.array([1.0])),
            (np.array([2, 2, 2]), np.array([5.0, 5.0, 5.0])),  # pure ties
            (
                np.array([0, 3, 0, 1, 3, 3, 1]),
                np.array([2.0, 1.0, 2.0, 9.0, 1.0, 0.5, 9.0]),
            ),
        ]
        samplers = rng.integers(0, 6, 400)
        keys = np.round(rng.uniform(0.0, 3.0, 400), 1)
        cases.append((samplers, keys.astype(np.float64)))
        for samplers, keys in cases:
            samplers = samplers.astype(np.int64)
            heads = swr_min_fold(samplers, keys).tolist()
            assert heads == _swr_min_fold_oracle(samplers, keys)
            # Each head is its sampler's np.argmin (the first minimum).
            for head in heads:
                mine = np.flatnonzero(samplers == samplers[head])
                assert head == mine[np.argmin(keys[mine])]

    def test_window_dominators(self):
        rng = np.random.default_rng(11)
        for keys in _key_fixtures(rng):
            for cap in _dominator_caps(len(keys)):
                want = _brute_dominators(keys, cap)
                assert window_dominators(keys, cap).tolist() == want
        # Tie-heavy keys across the 256-wide rank block.
        for n in (300, 600):
            keys = np.round(rng.uniform(0.0, 2.0, n), 1)
            for cap in _dominator_caps(n):
                want = _brute_dominators(keys, cap)
                assert window_dominators(keys, cap).tolist() == want

    @pytest.mark.filterwarnings("error")
    def test_compute_levels_at_power_boundaries(self):
        for r in (2.0, 3.0, 10.0, 100.0):
            exact = [r**j for j in range(0, 40, 3)]
            nudged = [w * (1.0 - 1e-16) for w in exact] + [
                w * (1.0 + 1e-16) for w in exact
            ]
            weights = np.array(
                [0.5, 1.0, 1.5, r - 1e-9, r] + exact + nudged + FLOAT_TOP
            )
            want = [level_of(w, r) for w in weights.tolist()]
            assert compute_levels(weights, r).tolist() == want
            # The bracket invariant, with an overflowing power as +inf.
            for w, j in zip(weights.tolist(), want):
                assert j == 0 or _power(r, j) <= w
                assert w < _power(r, j + 1)

    def test_window_split_with_saturation_storm(self):
        rng = np.random.default_rng(5)
        tables = [
            np.zeros(64, dtype=bool),
            np.ones(64, dtype=bool),  # storm: every table level saturated
            rng.integers(0, 2, 64).astype(bool),
        ]
        r = 2.0
        for weights in (
            np.array([], dtype=np.float64),
            np.array([1.0]),
            np.array([1.0, 2.0, 4.0, 8.0, 1024.0, 3.0, 0.25]),
            rng.uniform(0.25, 2.0**20, 500),
            2.0 ** rng.integers(0, 80, 300).astype(np.float64),  # beyond table
        ):
            for heavy_floor in (0.0, -1.0, 1.0, 16.0, 2.0**70):
                for table in tables:
                    got = window_split(weights, r, heavy_floor, table)
                    want = _window_split_oracle(weights, r, heavy_floor, table)
                    assert got[0].tolist() == want[0]
                    assert got[1].tolist() == want[1]
                    assert got[2].tolist() == want[2]

    def test_randomized_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(0, 300))
            keys = np.round(rng.uniform(0.0, 8.0, n), rng.integers(0, 3))
            s = int(rng.integers(1, 12))
            h = int(rng.integers(0, s + 1))
            old = np.round(rng.uniform(0.0, 8.0, h), 1)
            threshold = float(rng.uniform(0.0, 4.0))
            _assert_fold(keys, threshold, old, s)
            for cap in _dominator_caps(n):
                want = _brute_dominators(keys, cap)
                assert window_dominators(keys, cap).tolist() == want


@pytest.mark.filterwarnings("error")
def test_engines_agree_on_a_weight_at_the_float_top():
    """One weight of ``MAX_WEIGHT``, the top of the declared weight
    domain, in a SWOR stream: every engine runs it with finite keys and
    no overflow warning, and columnar at batch size 1 equals
    ``reference``.  (The largest key, ``MAX_WEIGHT / MIN_EXPONENTIAL``,
    is ``2**1023``; a heavier weight is refused at ingest.)"""
    rng = random.Random(3)
    items = [Item(i, rng.uniform(1.0, 100.0)) for i in range(4000)]
    items[2500] = Item(2500, MAX_WEIGHT)
    stream = round_robin(items, 4)

    def run(engine):
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=4, sample_size=4), seed=11, engine=engine
        )
        proto.run(stream)
        sample = [(i.ident, i.weight, k) for i, k in proto.sample_with_keys()]
        assert 2500 in [ident for ident, _, _ in sample]
        assert all(math.isfinite(key) for _, _, key in sample)
        return sample, proto.counters.snapshot()

    reference = run(None)
    assert run(ColumnarEngine(batch_size=1)) == reference
    sharded = get_engine("sharded", workers=2, batch_size=7)
    try:
        assert run(sharded) == run(ColumnarEngine(batch_size=7))
    finally:
        sharded.close()
    run(ColumnarEngine())


class TestCoordinatorFusedFold:
    """Every pack's regulars take the fused ``swor_fold_regulars``
    kernel; its commit must equal sequential per-message delivery —
    push path (underfull sample), partition path, and the tie-rich
    fallback alike."""

    def _coordinator(self, s):
        return SworCoordinator(
            SworConfig(num_sites=4, sample_size=s), np.random.default_rng(42)
        )

    def _fingerprint(self, coordinator):
        return (
            coordinator.sample_with_keys(),
            coordinator.regular_received,
            coordinator.sample_set.threshold,
        )

    @pytest.mark.parametrize("s", [3, 64, 200])
    def test_bulk_pack_matches_sequential(self, s, monkeypatch):
        rng = np.random.default_rng(17)
        keys = np.round(rng.uniform(0.1, 50.0, 100), 1)  # tie-rich
        pack = MessagePack(
            regular_idents=np.arange(100, dtype=np.int64),
            regular_weights=rng.uniform(1.0, 9.0, 100),
            regular_keys=keys,
        )
        calls = []

        def spy(*args):
            calls.append(args)
            return swor_fold_regulars(*args)

        # The pack fold runs through the shared epoch-segmented fold.
        monkeypatch.setattr(epochs_mod, "swor_fold_regulars", spy)
        bulk = self._coordinator(s)
        bulk.on_message_pack(0, pack)
        assert calls  # the fused fold, not a replay, took the pack
        seq = self._coordinator(s)
        for message in pack.messages():
            seq.on_message(0, message)
        assert self._fingerprint(bulk) == self._fingerprint(seq)
