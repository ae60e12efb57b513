"""The compiled kernel backend: numba ``@njit(cache=True)`` loop kernels.

Same call-for-call contract as :mod:`repro.kernels.numpy_backend` —
bit-identical floats, counts, and index orders for the same inputs —
but each kernel is a single fused loop nest instead of a chain of
numpy whole-array passes, so one pack fold costs one C-speed pass with
no intermediate allocations.

Bit-identity notes (why the loop results equal the numpy results):

* order statistics (``merge_cut``'s cut value) are multiset functions —
  an explicit quickselect returns the exact same float ``np.partition``
  selects;
* dominator counts are exact integers — the Fenwick-tree count over
  ``searchsorted`` ranks, clamped to the cap, equals the numpy
  backend's capped top-``cap`` count, which is exact below the cap;
* level computation starts from a ``log`` estimate but converges via
  ``pow``-comparison correction loops to the unique bracket
  ``r^j <= w < r^{j+1}``, so a last-ulp difference between numpy's and
  libm's ``log`` cannot change the result (``math.pow`` and
  ``np.power`` both call libm ``pow``);
* no kernel draws randomness — RNG order is owned by the callers.

When numba is not importable the module still loads: ``njit`` becomes
an identity decorator and every kernel runs as plain Python over numpy
arrays.  That keeps the exact loop logic testable (and usable, via the
``python_mirror_backend`` helper) on numpy-only installs; the registry
simply never selects ``"numba"`` there.

Like every kernel backend, this module is subject to reprolint's
kernel-purity rule (R002): no RNG, clocks, I/O, or module-global
mutation — ambient state is the only channel through which two
backends could diverge.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Tuple

import numpy as _np

try:
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False

    def _njit(*args: Any, **kwargs: Any) -> Any:  # identity decorator: kernels run as Python
        if args and callable(args[0]):
            return args[0]

        def _decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
            return fn

        return _decorate


from ..common.errors import ConfigurationError

__all__ = [
    "AVAILABLE",
    "NUMBA_AVAILABLE",
    "swor_fold_regulars",
    "merge_cut",
    "swr_min_fold",
    "window_dominators",
    "compute_levels",
    "window_split",
    "warmup",
]

#: The registry only offers this backend when numba itself is present
#: (the pure-Python fallback loops stay reachable through
#: :func:`repro.kernels.python_mirror_backend` for parity testing).
AVAILABLE = NUMBA_AVAILABLE


def _f64(a: _np.ndarray) -> _np.ndarray:
    return _np.ascontiguousarray(a, dtype=_np.float64)


def _i64(a: _np.ndarray) -> _np.ndarray:
    return _np.ascontiguousarray(a, dtype=_np.int64)


# -- compiled cores (no exceptions, no object mode) ---------------------


@_njit(cache=True)
def _kth_smallest(a: _np.ndarray, k: int) -> float:
    """Exact ``k``-th smallest of ``a`` (0-based) — in-place quickselect
    with median-of-three pivots; ``a`` is scratch and gets permuted."""
    lo = 0
    hi = a.shape[0] - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] < a[lo]:
            a[lo], a[mid] = a[mid], a[lo]
        if a[hi] < a[lo]:
            a[lo], a[hi] = a[hi], a[lo]
        if a[hi] < a[mid]:
            a[mid], a[hi] = a[hi], a[mid]
        pivot = a[mid]
        i = lo
        j = hi
        while i <= j:
            while a[i] < pivot:
                i += 1
            while a[j] > pivot:
                j -= 1
            if i <= j:
                a[i], a[j] = a[j], a[i]
                i += 1
                j -= 1
        if k <= j:
            hi = j
        elif k >= i:
            lo = i
        else:
            return a[k]
    return a[lo]


@_njit(cache=True)
def _merge_cut_core(
    old_keys: _np.ndarray, cand_keys: _np.ndarray, sample_size: int
) -> Tuple[float, int]:
    h = old_keys.shape[0]
    c = cand_keys.shape[0]
    merged = _np.empty(h + c, _np.float64)
    merged[:h] = old_keys
    merged[h:] = cand_keys
    cut = _kth_smallest(merged, h + c - sample_size)
    at_cut = 0
    for t in range(h + c):  # quickselect permutes; the multiset is intact
        if merged[t] == cut:
            at_cut += 1
    return cut, at_cut


@_njit(cache=True)
def _swor_fold_core(
    keys: _np.ndarray, threshold: float, old_keys: _np.ndarray, sample_size: int
) -> Tuple[_np.ndarray, _np.ndarray, float, int]:
    n = keys.shape[0]
    h = old_keys.shape[0]
    surv = _np.empty(n, _np.int64)
    c = 0
    for i in range(n):
        if keys[i] > threshold:
            surv[c] = i
            c += 1
    surv_idx = surv[:c].copy()
    if h + c < sample_size:
        return surv_idx, surv_idx, 0.0, 1
    cand = _np.empty(c, _np.float64)
    for t in range(c):
        cand[t] = keys[surv_idx[t]]
    cut, at_cut = _merge_cut_core(old_keys, cand, sample_size)
    if c <= sample_size - h:
        kept_idx = surv_idx
    else:
        kept = _np.empty(c, _np.int64)
        kc = 0
        for t in range(c):
            if keys[surv_idx[t]] >= cut:
                kept[kc] = surv_idx[t]
                kc += 1
        kept_idx = kept[:kc].copy()
    return surv_idx, kept_idx, cut, at_cut


@_njit(cache=True)
def _swr_min_fold_core(
    samplers: _np.ndarray, keys: _np.ndarray, sample_size: int
) -> _np.ndarray:
    best = _np.full(sample_size, -1, _np.int64)
    n = keys.shape[0]
    for i in range(n):
        sid = samplers[i]
        b = best[sid]
        if b < 0 or keys[i] < keys[b]:  # strict <: earliest arrival wins ties
            best[sid] = i
    heads = _np.empty(sample_size, _np.int64)
    c = 0
    for sid in range(sample_size):
        if best[sid] >= 0:
            heads[c] = best[sid]
            c += 1
    return heads[:c].copy()


@_njit(cache=True)
def _window_dominators_core(keys: _np.ndarray) -> _np.ndarray:
    m = keys.shape[0]
    out = _np.zeros(m, _np.int64)
    if m <= 1:
        return out
    sorted_keys = _np.sort(keys.copy())
    # rank[i] = # keys <= keys[i], in 1..m: monotone with the key order,
    # so "inserted with key <= keys[i]" == "inserted with rank <= rank[i]".
    ranks = _np.searchsorted(sorted_keys, keys, side="right")
    tree = _np.zeros(m + 1, _np.int64)  # Fenwick tree over ranks
    inserted = 0
    for i in range(m - 1, -1, -1):
        r_i = ranks[i]
        acc = 0
        x = r_i
        while x > 0:
            acc += tree[x]
            x -= x & (-x)
        out[i] = inserted - acc  # later arrivals with a strictly larger key
        x = r_i
        while x <= m:
            tree[x] += 1
            x += x & (-x)
        inserted += 1
    return out


@_njit(cache=True)
def _compute_levels_core(weights: _np.ndarray, r: float) -> Tuple[_np.ndarray, int]:
    n = weights.shape[0]
    levels = _np.zeros(n, _np.int64)
    logr = math.log(r)
    for i in range(n):
        w = weights[i]
        if not (w > 0.0) or math.isinf(w):  # catches NaN, <= 0, inf
            return levels, i
        if w < r:
            continue
        j = int(math.log(w) / logr)
        while math.pow(r, j + 1) <= w:
            j += 1
        while j > 0 and math.pow(r, j) > w:
            j -= 1
        levels[i] = j
    return levels, -1


@_njit(cache=True)
def _window_split_core(
    weights: _np.ndarray, r: float, heavy_floor: float, table: _np.ndarray
) -> Tuple[_np.ndarray, _np.ndarray, _np.ndarray, int]:
    n = weights.shape[0]
    levels = _np.zeros(n, _np.int64)
    saturated = _np.ones(n, _np.bool_)
    early = _np.empty(n, _np.int64)
    ec = 0
    tlen = table.shape[0]
    logr = math.log(r)
    for i in range(n):
        w = weights[i]
        if heavy_floor > 0.0 and w < heavy_floor:
            continue  # provably in a saturated level below the floor
        if not (w > 0.0) or math.isinf(w):  # catches NaN, <= 0, inf
            return levels, saturated, early[:0].copy(), i
        if w < r:
            j = 0
        else:
            j = int(math.log(w) / logr)
            while math.pow(r, j + 1) <= w:
                j += 1
            while j > 0 and math.pow(r, j) > w:
                j -= 1
        levels[i] = j
        if j >= tlen or not table[j]:
            saturated[i] = False
            early[ec] = i
            ec += 1
    return levels, saturated, early[:ec].copy(), -1


# -- public kernels (validation + dtype normalization) ------------------


def merge_cut(
    old_keys: _np.ndarray, cand_keys: _np.ndarray, sample_size: int
) -> Tuple[float, int]:
    """See :func:`repro.kernels.numpy_backend.merge_cut`."""
    cut, at_cut = _merge_cut_core(_f64(old_keys), _f64(cand_keys), sample_size)
    return float(cut), int(at_cut)


def swor_fold_regulars(
    keys: _np.ndarray, threshold: float, old_keys: _np.ndarray, sample_size: int
) -> Tuple[_np.ndarray, _np.ndarray, float, int]:
    """See :func:`repro.kernels.numpy_backend.swor_fold_regulars`."""
    surv_idx, kept_idx, cut, at_cut = _swor_fold_core(
        _f64(keys), threshold, _f64(old_keys), sample_size
    )
    return surv_idx, kept_idx, float(cut), int(at_cut)


def swr_min_fold(
    samplers: _np.ndarray, keys: _np.ndarray, sample_size: int
) -> _np.ndarray:
    """See :func:`repro.kernels.numpy_backend.swr_min_fold`."""
    return _swr_min_fold_core(_i64(samplers), _f64(keys), sample_size)


def window_dominators(keys: _np.ndarray, cap: int) -> _np.ndarray:
    """See :func:`repro.kernels.numpy_backend.window_dominators`."""
    return _np.minimum(_window_dominators_core(_f64(keys)), cap)


def compute_levels(weights: _np.ndarray, r: float) -> _np.ndarray:
    """See :func:`repro.kernels.numpy_backend.compute_levels`."""
    w = _f64(weights)
    levels, bad = _compute_levels_core(w, r)
    if bad >= 0:
        raise ConfigurationError(
            f"weight must be positive and finite: {float(w[bad])}"
        )
    return levels


def window_split(
    weights: _np.ndarray, r: float, heavy_floor: float, table: _np.ndarray
) -> Tuple[_np.ndarray, _np.ndarray, _np.ndarray]:
    """See :func:`repro.kernels.numpy_backend.window_split`."""
    w = _f64(weights)
    levels, saturated, early_positions, bad = _window_split_core(
        w, r, heavy_floor, _np.ascontiguousarray(table, dtype=_np.bool_)
    )
    if bad >= 0:
        raise ConfigurationError(
            f"weight must be positive and finite: {float(w[bad])}"
        )
    return levels, saturated, early_positions


def warmup() -> None:
    """Force-compile every kernel on tiny inputs (a no-op without
    numba).  Benchmarks call this so steady-state timings exclude the
    first-call JIT cost; ``cache=True`` makes the cost once-per-machine
    rather than once-per-process."""
    keys = _np.array([3.0, 1.0, 2.0], dtype=_np.float64)
    old = _np.array([0.5], dtype=_np.float64)
    merge_cut(old, keys, 2)
    swor_fold_regulars(keys, 0.5, old, 2)
    swr_min_fold(_np.array([0, 1, 0], dtype=_np.int64), keys, 2)
    window_dominators(keys, 2)
    compute_levels(keys, 2.0)
    window_split(
        keys, 2.0, 0.0, _np.array([False, True], dtype=_np.bool_)
    )
