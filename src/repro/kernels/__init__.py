"""The kernel registry — a compiled tier for the hottest columnar loops.

The columnar plane (PRs 3–6) vectorized every protocol, but four loops
still dominate profiles: the SWOR coordinator fold (threshold mask +
top-``s`` merge), the SWR per-sampler min fold, the sliding-window
dominator count, and the site-side level computation / early-regular
split.  This package puts those four behind a *backend seam* mirroring
the engine registry:

* ``"numpy"`` — :mod:`repro.kernels.numpy_backend`, the always-available
  vectorized implementations (the exact logic that used to live inline);
* ``"numba"`` — :mod:`repro.kernels.numba_backend`, fused
  ``@njit(cache=True)`` loop kernels, offered only when numba imports;
* ``"auto"`` — numba when available, else numpy (the default, also the
  default of the ``REPRO_KERNELS`` environment variable).

The acceptance bar is the one every fast path since PR 3 has carried:
**bit-identical samples and message counters** regardless of backend.
Kernels therefore never draw randomness and never mutate protocol
state — they are pure column transforms whose outputs (floats, counts,
index sets) are defined to be backend-independent; the parity suite in
``tests/test_kernels.py`` pins this on adversarial fixtures.

Selection
---------
:func:`active` resolves the process default lazily: an explicit
:func:`set_default_kernels` wins, else ``REPRO_KERNELS``, else
``"auto"``.  Engines with a ``kernels=`` override scope it to the run
via :func:`use_kernels`.  Requesting ``"numba"`` explicitly when numba
is missing raises :class:`~repro.common.errors.ConfigurationError`;
``"auto"`` (and an env-var request) falls back to numpy silently.

Instrumentation
---------------
Every kernel call is counted and timed into a process-local stats table
(:func:`kernel_stats`), and — when an engine attaches a live
:class:`~repro.obs.MetricsRegistry` — exported as
``repro_kernel_calls_total{kernel,backend}`` /
``repro_kernel_seconds{kernel,backend}`` plus a
``repro_kernel_backend_info{backend}`` selection gauge.  Observational
only, like all of :mod:`repro.obs`.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager
from types import ModuleType
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..common.errors import ConfigurationError
from . import numba_backend, numpy_backend

__all__ = [
    "KERNEL_NAMES",
    "KERNEL_BACKENDS",
    "KernelBackend",
    "active",
    "available_backends",
    "get_kernels",
    "kernel_stats",
    "python_mirror_backend",
    "reset_default_kernels",
    "reset_kernel_stats",
    "set_default_kernels",
    "set_kernel_registry",
    "use_kernels",
]

#: The kernel seam: every backend module defines exactly these.
KERNEL_NAMES = (
    "swor_fold_regulars",
    "merge_cut",
    "swr_min_fold",
    "window_dominators",
    "compute_levels",
    "window_split",
)

#: name -> backend module, mirroring ``repro.runtime.ENGINES``.
KERNEL_BACKENDS = {
    "numpy": numpy_backend,
    "numba": numba_backend,
}

#: Environment variable consulted when no explicit default is set.
ENV_VAR = "REPRO_KERNELS"

# -- per-(kernel, backend) accounting -----------------------------------

_stats: Dict[Tuple[str, str], List[float]] = {}
_registry: Optional[Any] = None
_calls_family: Optional[Any] = None
_seconds_family: Optional[Any] = None


def kernel_stats() -> Dict[Tuple[str, str], Tuple[int, float]]:
    """``{(kernel, backend): (calls, seconds)}`` accumulated since the
    last :func:`reset_kernel_stats` — always on (no registry needed)."""
    return {k: (int(v[0]), v[1]) for k, v in _stats.items() if v[0]}


def reset_kernel_stats() -> None:
    # Zero in place: the instrumented closures hold the cell lists.
    for cell in _stats.values():
        cell[0] = 0
        cell[1] = 0.0


def set_kernel_registry(registry: Optional[Any]) -> None:
    """Attach (or detach, with ``None``/disabled) the live metrics
    registry kernel calls export to.  Called by
    :meth:`repro.runtime.base.Engine.instrument`; last attach wins
    (kernel selection is process-global, so is its telemetry)."""
    # reprolint: disable=R002 registry attachment is telemetry plumbing, not kernel math
    global _registry, _calls_family, _seconds_family
    if registry is None or not getattr(registry, "enabled", False):
        _registry = _calls_family = _seconds_family = None
        return
    _registry = registry
    _calls_family = registry.counter(
        "repro_kernel_calls_total",
        "kernel-tier calls by kernel and backend",
        labels=("kernel", "backend"),
    )
    _seconds_family = registry.histogram(
        "repro_kernel_seconds",
        "wall-clock duration of kernel-tier calls",
        labels=("kernel", "backend"),
    )
    registry.gauge(
        "repro_kernel_backend_info",
        "1 for the kernel backend selected by the process default",
        labels=("backend",),
    ).labels(backend=active().name).set(1)


class KernelBackend:
    """One resolved backend: the six kernels, instrumented.

    Attribute access is pre-bound at construction (``backend.merge_cut``
    is a closure, not a dict lookup), so per-call overhead is one
    ``perf_counter`` pair plus a list update.
    """

    __slots__ = ("name",) + KERNEL_NAMES

    name: str
    swor_fold_regulars: Callable[..., Any]
    merge_cut: Callable[..., Any]
    swr_min_fold: Callable[..., Any]
    window_dominators: Callable[..., Any]
    compute_levels: Callable[..., Any]
    window_split: Callable[..., Any]

    def __init__(self, name: str, module: ModuleType) -> None:
        self.name = name
        for kernel_name in KERNEL_NAMES:
            setattr(
                self,
                kernel_name,
                _timed(kernel_name, name, getattr(module, kernel_name)),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelBackend({self.name!r})"


def _timed(
    kernel_name: str, backend_name: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    cell = _stats.setdefault((kernel_name, backend_name), [0, 0.0])
    # reprolint: disable=R002 wall-clock here only times the call for obs; kernel outputs never see it
    perf_counter = time.perf_counter

    def call(*args: Any) -> Any:
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        cell[0] += 1
        cell[1] += dt
        if _registry is not None:
            _calls_family.labels(kernel=kernel_name, backend=backend_name).inc()
            _seconds_family.labels(
                kernel=kernel_name, backend=backend_name
            ).observe(dt)
        return out

    call.__name__ = f"{backend_name}:{kernel_name}"
    return call


# -- selection ----------------------------------------------------------

_backends: Dict[str, KernelBackend] = {}
_default: Optional[KernelBackend] = None


def available_backends() -> Dict[str, bool]:
    """``{name: importable}`` for every registered backend."""
    return {
        name: bool(getattr(module, "AVAILABLE", False))
        for name, module in KERNEL_BACKENDS.items()
    }


def _backend(name: str) -> KernelBackend:
    backend = _backends.get(name)
    if backend is None:
        backend = _backends[name] = KernelBackend(name, KERNEL_BACKENDS[name])
    return backend


def get_kernels(
    spec: Union[str, "KernelBackend", None] = None, strict: bool = True
) -> "KernelBackend":
    """Resolve a kernel-backend spec, mirroring ``get_engine``.

    ``spec`` may be a :class:`KernelBackend` (returned as-is), a name
    from :data:`KERNEL_BACKENDS`, ``"auto"``, or ``None`` (= the
    ``REPRO_KERNELS`` environment variable, default ``"auto"``).  With
    ``strict`` (the default for explicit requests) an unavailable or
    unknown backend raises ``ConfigurationError``; ``strict=False``
    (used for env/worker propagation) warns and falls back to auto.
    """
    if isinstance(spec, KernelBackend):
        return spec
    if spec is None:
        spec = os.environ.get(ENV_VAR) or "auto"
        strict = False
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"kernels spec must be a string or KernelBackend, got {spec!r}"
        )
    name = spec.lower()
    if name == "auto":
        return _backend("numba" if numba_backend.AVAILABLE else "numpy")
    if name not in KERNEL_BACKENDS:
        known = ", ".join(sorted(KERNEL_BACKENDS) + ["auto"])
        message = f"unknown kernel backend {spec!r} (known: {known})"
        if strict:
            raise ConfigurationError(message)
        warnings.warn(f"{message}; falling back to auto", stacklevel=2)
        return get_kernels("auto")
    if not getattr(KERNEL_BACKENDS[name], "AVAILABLE", False):
        message = f"kernel backend {spec!r} is not available on this install"
        if name == "numba":
            message += " (pip install 'repro-weighted-reservoir[kernels]')"
        if strict:
            raise ConfigurationError(message)
        warnings.warn(f"{message}; falling back to auto", stacklevel=2)
        return get_kernels("auto")
    return _backend(name)


def active() -> KernelBackend:
    """The process-default backend (resolved lazily on first use)."""
    # reprolint: disable=R002 process-default backend selection is the seam itself, not a kernel
    global _default
    if _default is None:
        _default = get_kernels(None)
    return _default


def set_default_kernels(
    spec: Union[str, KernelBackend, None], strict: bool = True
) -> KernelBackend:
    """Set the process-default backend; returns the resolved backend."""
    # reprolint: disable=R002 process-default backend selection is the seam itself, not a kernel
    global _default
    _default = get_kernels(spec, strict=strict)
    return _default


def reset_default_kernels() -> None:
    """Forget the resolved default so the next :func:`active` re-reads
    ``REPRO_KERNELS`` (test hook)."""
    # reprolint: disable=R002 process-default backend selection is the seam itself, not a kernel
    global _default
    _default = None


@contextmanager
def use_kernels(
    spec: Union[str, KernelBackend, None]
) -> Iterator[KernelBackend]:
    """Scope the process-default backend to a ``with`` block — how an
    engine's ``kernels=`` override applies for exactly one run.
    ``None`` (no override) is a pass-through that yields the active
    default, so engine code wraps unconditionally."""
    # reprolint: disable=R002 process-default backend selection is the seam itself, not a kernel
    global _default
    if spec is None:
        yield active()
        return
    prev = _default
    _default = get_kernels(spec)
    try:
        yield _default
    finally:
        _default = prev


def python_mirror_backend() -> KernelBackend:
    """The numba backend's loop logic as a backend named ``"python"`` —
    compiled when numba is present, plain Python otherwise.  The parity
    suite uses this to exercise the loop implementations on
    numpy-only installs, where ``"numba"`` itself is unavailable."""
    backend = _backends.get("python")
    if backend is None:
        backend = _backends["python"] = KernelBackend("python", numba_backend)
    return backend
