"""The metrics registry: counters, gauges, histograms, spans.

A zero-dependency telemetry core for every engine in the package.  The
design goals, in order:

1. **Near-zero cost when disabled.**  Instrumented code holds a
   :data:`NULL_REGISTRY` by default; its ``enabled`` flag lets hot
   paths skip even the ``time.perf_counter()`` calls, and every handle
   it hands out is a shared no-op singleton.  An un-instrumented run
   pays one attribute load and one truthiness check per window — the
   ≤2% overhead bar in ``benchmarks/bench_obs.py`` pins the *enabled*
   cost too.
2. **Prometheus-compatible semantics.**  Monotonic counters (by
   convention named ``*_total`` or ``*_seconds_total``), gauges
   (last-write-wins — safe to re-export cumulative
   :class:`~repro.net.counters.MessageCounters` after every run), and
   histograms with **fixed bucket schemas** chosen at creation.

Usage::

    registry = MetricsRegistry()
    folds = registry.counter(
        "repro_folds_total", "coordinator folds", labels=("engine",)
    )
    folds.labels(engine="columnar").inc()
    with registry.span("fold", engine="columnar"):
        ...                       # observes repro_fold_seconds{engine=...}
    print(registry.exposition())  # Prometheus text format
    registry.snapshot()           # JSON-able dict

The registry is deliberately not thread-safe: every engine in this
package records its runs in a single parent thread (sharded workers
keep no metrics; the parent counts from the messages it exchanges).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..common.errors import ConfigurationError

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DURATION_BUCKETS",
]

#: Fixed duration bucket schema (seconds): spans and run timings share
#: it.
DURATION_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

_RESERVED_LABELS = frozenset({"le", "quantile"})


def _check_name(name: str) -> None:
    if not name or not (name[0].isalpha() or name[0] in "_:"):
        raise ConfigurationError(f"invalid metric name {name!r}")
    for ch in name:
        if not (ch.isalnum() or ch in "_:"):
            raise ConfigurationError(f"invalid metric name {name!r}")


class _Counter:
    """One (family, label-values) counter cell."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; inc({amount}) rejected"
            )
        self.value += amount


class _Gauge:
    """One (family, label-values) gauge cell."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class _Histogram:
    """One (family, label-values) histogram: fixed buckets + sum/count."""

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        # Linear scan beats bisect at these bucket counts, and most
        # observations (durations) land in the first few buckets.
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break


_KINDS = {"counter": _Counter, "gauge": _Gauge, "histogram": _Histogram}


class MetricFamily:
    """All cells of one metric name: a type, label names, children.

    An unlabeled family proxies its single child, so
    ``registry.counter("x_total").inc()`` works without a
    ``labels()`` hop.
    """

    __slots__ = ("name", "type", "help", "label_names", "buckets", "_children")

    def __init__(
        self,
        name: str,
        type_: str,
        help_: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        _check_name(name)
        for label in label_names:
            _check_name(label)
            if label in _RESERVED_LABELS:
                raise ConfigurationError(f"label {label!r} is reserved")
        self.name = name
        self.type = type_
        self.help = help_
        self.label_names = label_names
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self):
        if self.type == "histogram":
            return _Histogram(self.buckets)
        return _KINDS[self.type]()

    def labels(self, **labels: object):
        """The child cell for one label-value combination (created on
        first use).  Values are stringified, Prometheus-style."""
        if set(labels) != set(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def _solo(self):
        """The single unlabeled child (for label-free families)."""
        child = self._children.get(())
        if child is None:
            child = self._children[()] = self._make_child()
        return child

    # Unlabeled convenience surface — proxies the () child.
    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label_values, cell)`` pairs in insertion order."""
        return list(self._children.items())


class _Span:
    """A timing context: observes its duration into a histogram cell."""

    __slots__ = ("_cell", "_t0", "seconds")

    def __init__(self, cell: _Histogram) -> None:
        self._cell = cell
        self._t0 = 0.0
        #: Duration of the last completed span (seconds).
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._t0
        self._cell.observe(self.seconds)


class MetricsRegistry:
    """A live collection of metric families (see the module docstring)."""

    #: Hot paths check this before paying for clocks or label lookups.
    enabled = True

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # -- declaration ----------------------------------------------------

    def _family(
        self,
        name: str,
        type_: str,
        help_: str,
        labels: Sequence[str],
        buckets: Optional[Iterable[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        label_names = tuple(labels)
        if family is not None:
            if family.type != type_:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {family.type}"
                )
            if family.label_names != label_names:
                raise ConfigurationError(
                    f"metric {name!r} already registered with labels "
                    f"{family.label_names}, got {label_names}"
                )
            return family
        bounds = None
        if type_ == "histogram":
            bounds = tuple(float(b) for b in (buckets or DURATION_BUCKETS))
            if list(bounds) != sorted(set(bounds)):
                raise ConfigurationError(
                    f"histogram {name!r} buckets must strictly increase"
                )
        family = MetricFamily(name, type_, help_, label_names, bounds)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Declare (or fetch) a monotonic counter family."""
        return self._family(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Declare (or fetch) a gauge family (last write wins)."""
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> MetricFamily:
        """Declare (or fetch) a histogram family with a fixed bucket
        schema (:data:`DURATION_BUCKETS` by default)."""
        return self._family(name, "histogram", help, labels, buckets)

    def span(self, name: str, **labels: object) -> _Span:
        """A ``with``-block timer observing ``repro_<name>_seconds``.

        ::

            with registry.span("fold", engine="columnar"):
                ...

        The histogram family is auto-declared with the standard
        duration buckets; its label names are fixed by the first call
        for a given span name.
        """
        family = self.histogram(
            f"repro_{name}_seconds",
            f"duration of {name} spans",
            labels=tuple(labels),
        )
        cell = family.labels(**labels) if labels else family._solo()
        return _Span(cell)

    # -- read side ------------------------------------------------------

    def families(self) -> List[MetricFamily]:
        """All families, sorted by name (the exposition order)."""
        return [self._families[name] for name in sorted(self._families)]

    def metric_names(self) -> List[str]:
        """Sorted family names — the surface the golden stability test
        in ``tests/test_obs.py`` pins."""
        return sorted(self._families)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-able snapshot of every family (see
        :func:`repro.obs.exposition.render_json`)."""
        out: Dict[str, object] = {}
        for family in self.families():
            samples = []
            for values, cell in family.samples():
                labels = dict(zip(family.label_names, values))
                if family.type == "histogram":
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": dict(
                                zip(
                                    [str(b) for b in cell.bounds],
                                    cell.bucket_counts,
                                )
                            ),
                            "sum": cell.sum,
                            "count": cell.count,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": cell.value})
            entry: Dict[str, object] = {
                "type": family.type,
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": samples,
            }
            if family.type == "histogram":
                entry["bucket_bounds"] = list(family.buckets)
            out[family.name] = entry
        return {"metrics": out}

    def exposition(self) -> str:
        """The registry in Prometheus text exposition format."""
        from .exposition import render_prometheus

        return render_prometheus(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._families)} families)"


class _NullMetric:
    """The do-nothing handle every :class:`NullRegistry` call returns."""

    __slots__ = ()

    def labels(self, **labels: object) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullSpan:
    """A reusable no-op context manager (no clock reads)."""

    __slots__ = ()
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_METRIC = _NullMetric()
_NULL_SPAN = _NullSpan()


class NullRegistry:
    """The disabled registry: every operation is a shared no-op.

    Instrumented code never needs a None check — it calls the same
    surface and pays a few attribute loads.  ``enabled`` is False so
    hot paths can skip clock reads entirely.
    """

    enabled = False

    def counter(self, name, help="", labels=()):  # noqa: A002 - API parity
        return _NULL_METRIC

    def gauge(self, name, help="", labels=()):  # noqa: A002 - API parity
        return _NULL_METRIC

    def histogram(self, name, help="", labels=(), buckets=None):  # noqa: A002
        return _NULL_METRIC

    def span(self, name, **labels):
        return _NULL_SPAN

    def families(self):
        return []

    def metric_names(self):
        return []

    def snapshot(self):
        return {"metrics": {}}

    def exposition(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullRegistry()"


#: The process-wide disabled registry (a singleton: identity checks and
#: pickling across spawn both stay cheap and unambiguous).
NULL_REGISTRY = NullRegistry()
