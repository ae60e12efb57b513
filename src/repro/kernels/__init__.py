"""The hot-loop kernels of the columnar plane, as six numpy functions.

Each function here is vectorized hot-path logic shared by the core
structures: the top-``s`` merge cut, the fused regular fold that the
SWOR, L1 and unweighted coordinators run over the sample set's key
column, the SWR lexsort min fold, the sliding-window capped dominator
count, and the site-side level computation / early-regular split.
Callers import them directly.

Kernels never draw randomness and never mutate protocol state — they
only transform columns whose random keys were already drawn by the
caller — so a fast path built on them stays bit-identical to the
scalar path it replaces.  ``tests/test_kernels.py`` checks every kernel
against an independent scalar oracle on adversarial fixtures.

The purity half of that contract (no RNG, no clocks, no I/O, no
module-global mutation anywhere under ``src/repro/kernels/``) is
enforced statically by reprolint rule R002 (``python -m
tools.reprolint --list-rules``).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as _np

__all__ = [
    "swor_fold_regulars",
    "merge_cut",
    "swr_min_fold",
    "window_dominators",
    "compute_levels",
    "window_split",
]

#: Block width of the chunk-internal dominator count: within a block
#: the later-larger counts of the arrivals still below the cap come
#: from one comparison table, across blocks from ranks in the running
#: sorted top-``cap`` keys of the later blocks.
_RANK_BLOCK = 256


def merge_cut(
    old_keys: _np.ndarray, cand_keys: _np.ndarray, sample_size: int
) -> Tuple[float, int]:
    """``(cut, at_cut)`` of a top-``s`` merge over old + candidate keys.

    ``cut`` is the exact ``(total - s)``-th smallest of the merged
    multiset — the smallest surviving key — and ``at_cut`` is how many
    merged keys equal it (``!= 1`` means the selection boundary is an
    ambiguous tie).  Requires ``len(old) + len(cand) >= sample_size``.
    """
    merged = _np.concatenate([old_keys, cand_keys])
    cut_index = len(merged) - sample_size
    cut = float(_np.partition(merged, cut_index)[cut_index])
    return cut, int((merged == cut).sum())


def swor_fold_regulars(
    keys: _np.ndarray, threshold: float, old_keys: _np.ndarray, sample_size: int
) -> Tuple[_np.ndarray, _np.ndarray, float, int]:
    """The fused SWOR coordinator fold over one pack's regular keys.

    One pass computes everything the coordinator's fast path needs:

    * ``surv_idx`` — indices (into ``keys``) of the candidates above
      the live ``threshold`` (Algorithm 2 line 19's re-check);
    * ``kept_idx`` — the subset that survives the top-``s`` merge
      against ``old_keys`` (all of ``surv_idx`` on the underfull push
      path);
    * ``cut`` — the merged threshold the fold would leave behind
      (``0.0`` while the merged set stays underfull), which drives the
      epoch-crossing check;
    * ``at_cut`` — merged keys equal to ``cut`` (``!= 1`` on the
      partition path means the order-dependent tie fallback applies).
    """
    surv_idx = _np.flatnonzero(keys > threshold)
    n = len(surv_idx)
    h = len(old_keys)
    if h + n < sample_size:
        return surv_idx, surv_idx, 0.0, 1
    cand = keys[surv_idx]
    cut, at_cut = merge_cut(old_keys, cand, sample_size)
    if n <= sample_size - h:
        kept_idx = surv_idx
    else:
        kept_idx = surv_idx[cand >= cut]
    return surv_idx, kept_idx, cut, at_cut


def swr_min_fold(samplers: _np.ndarray, keys: _np.ndarray) -> _np.ndarray:
    """Per-sampler minimum of one SWR pack: head indices, ascending
    sampler id, earliest arrival winning key ties.

    One stable ``np.lexsort`` groups the pack's entries by sampler and
    finds each sampler's minimum key (first arrival wins ties, as the
    scalar strict-``<`` update does).
    """
    nr = len(keys)
    order = _np.lexsort((_np.arange(nr), keys, samplers))
    sorted_samplers = samplers[order]
    return order[
        _np.flatnonzero(_np.r_[True, sorted_samplers[1:] != sorted_samplers[:-1]])
    ]


def window_dominators(keys: _np.ndarray, cap: int) -> _np.ndarray:
    """Capped chunk-internal dominator counts of the sliding-window
    sampler: ``out[i] = min(cap, #{j > i : keys[j] > keys[i]})``
    (strictly later, strictly larger), exact integers; ``cap >= 1``.

    Blocks are processed back to front against ``top``, the sorted
    ``cap`` largest keys of all later blocks.  Below the cap the count
    against ``top`` is exact: if fewer than ``cap`` later keys exceed
    ``x`` they are all among the ``cap`` largest, otherwise all of
    ``top`` exceeds ``x``.  Only arrivals still below the cap after
    that cross-block count get a within-block count, against the later
    positions of their block.
    """
    m = len(keys)
    dominators = _np.full(m, cap, dtype=_np.int64)
    positions = _np.arange(_RANK_BLOCK)
    top = keys[:0]
    for bs in range(((m - 1) // _RANK_BLOCK) * _RANK_BLOCK, -1, -_RANK_BLOCK):
        block = keys[bs:bs + _RANK_BLOCK]
        cross = len(top) - _np.searchsorted(top, block, side="right")
        cand = _np.flatnonzero(cross < cap)
        if len(cand):
            later = (block[None, :] > block[cand, None]) & (
                positions[None, : len(block)] > cand[:, None]
            )
            dominators[bs + cand] = _np.minimum(
                cross[cand] + later.sum(axis=1), cap
            )
        merged = _np.concatenate([top, block])
        if len(merged) > cap:
            merged = _np.partition(merged, len(merged) - cap)[len(merged) - cap:]
        top = _np.sort(merged)
    return dominators


def compute_levels(weights: _np.ndarray, r: float) -> _np.ndarray:
    """Vectorized level computation ``w in [r^j, r^{j+1})`` (0 for
    ``w < r``), with the scalar path's float-edge corrections.

    Assumes weights in the domain ``(0, MAX_WEIGHT]``, checked at
    ingest (:func:`repro.stream.item.check_weight_column`), and
    ``r >= 2`` (validated by the caller).  The correction
    loops converge to the unique bracket satisfying the exact ``pow``
    comparisons, which is what makes the result independent of how the
    initial ``log`` estimate rounded.  A bracket power that overflows
    is ``+inf``, above every finite weight, as in
    :func:`~repro.core.levels.level_of`.
    """
    # Float64 exponentiation throughout: an integer ``r`` would make
    # ``np.power(r, est)`` wrap in int64 for large levels.
    r = float(r)
    w = _np.asarray(weights, dtype=_np.float64)
    levels = _np.zeros(len(w), dtype=_np.int64)
    big = w >= r
    if big.any():
        est = (_np.log(w[big]) / math.log(r)).astype(_np.int64)
        with _np.errstate(over="ignore"):
            while True:  # correct log() rounding down across power boundaries
                low = _np.power(r, est + 1) <= w[big]
                if not low.any():
                    break
                est[low] += 1
            while True:  # ...and rounding up
                high = (est > 0) & (_np.power(r, est) > w[big])
                if not high.any():
                    break
                est[high] -= 1
        levels[big] = est
    return levels


def window_split(
    weights: _np.ndarray, r: float, heavy_floor: float, table: _np.ndarray
) -> Tuple[_np.ndarray, _np.ndarray, _np.ndarray]:
    """Fused site-side level computation + early/regular split.

    For every weight at or above ``heavy_floor`` the exact level is
    computed (``heavy_floor <= 0`` means *every* weight); weights below
    the floor are provably in
    saturated levels and keep a level-0 placeholder.  ``table`` is the
    saturation lookup (``table[j]`` = level ``j`` saturated); levels
    beyond the table are unsaturated by construction (the table covers
    every set bit of the mask).

    Returns ``(levels, saturated, early_positions)`` where
    ``early_positions`` is the sorted index array of unsaturated
    (early) arrivals — the site's split in one pass.
    """
    n = len(weights)
    if heavy_floor > 0.0:
        heavy_idx = _np.flatnonzero(weights >= heavy_floor)
    else:
        heavy_idx = _np.arange(n)
    levels = _np.zeros(n, dtype=_np.int64)
    saturated = _np.ones(n, dtype=_np.bool_)
    if len(heavy_idx) == 0:
        return levels, saturated, heavy_idx
    heavy_levels = compute_levels(
        weights if len(heavy_idx) == n else weights[heavy_idx], r
    )
    levels[heavy_idx] = heavy_levels
    in_table = heavy_levels < len(table)
    heavy_saturated = _np.zeros(len(heavy_idx), dtype=_np.bool_)
    heavy_saturated[in_table] = table[heavy_levels[in_table]]
    early_positions = heavy_idx[~heavy_saturated]
    saturated[early_positions] = False
    return levels, saturated, early_positions
