"""The outside-in layer ledger: time the calls into each layer.

Nothing under ``src/`` is changed.  A traced run wraps, from outside:

* instance attributes of the run's own objects — each site's
  ``on_columns`` / ``prepare_window`` / ``on_control``, each
  coordinator's ``on_message_pack`` / ``on_message``, each counter's
  ``record_*`` calls, and the multi-query driver's compiled ``answer``
  and centralized ``observe_columns``;
* the ``window_order`` attribute of :mod:`repro.runtime.columnar`;
* the :class:`~repro.net.messages.MessagePack` decode classmethods.

``Network.deliver_*`` is never wrapped: ``Network.deliver_pack`` expands
packs message by message when a delivery method is instrumented, and
``ShardedEngine`` falls back to the in-process engine, so either would
time a different program.  For the same reason sites of a sharded run
are left alone (they are pickled to the workers); the worker side is
read from ``engine.last_run_stats`` instead.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from repro.net.messages import MessagePack
from repro.runtime import columnar as columnar_module

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("grouping.busy_s", "s"),
    ("grouping.calls", "count"),
    ("grouping.frac", "fraction"),
    ("site.prep_s", "s"),
    ("site.busy_s", "s"),
    ("site.calls", "count"),
    ("site.items_in", "count"),
    ("site.entries_out", "count"),
    ("site.send_ratio", "ratio"),
    ("site.frac", "fraction"),
    ("fold.busy_s", "s"),
    ("fold.calls", "count"),
    ("fold.entries_in", "count"),
    ("fold.controls_out", "count"),
    ("fold.frac", "fraction"),
    ("accounting.busy_s", "s"),
    ("accounting.calls", "count"),
    ("accounting.frac", "fraction"),
    ("control.busy_s", "s"),
    ("control.calls", "count"),
    ("control.frac", "fraction"),
    ("transport.decode_s", "s"),
    ("transport.decode_calls", "count"),
    ("transport.bytes", "bytes"),
    ("transport.wait_s", "s"),
    ("shard.worker_compute_s", "s"),
    ("shard.parent_fold_s", "s"),
    ("shard.windows", "count"),
    ("shard.rollbacks", "count"),
    ("shard.commit_ratio", "ratio"),
    ("shard.spec_hit_ratio", "ratio"),
    ("query.swor_fold_s", "s"),
    ("query.swr_fold_s", "s"),
    ("query.unweighted_fold_s", "s"),
    ("query.l1_fold_s", "s"),
    ("query.sliding_s", "s"),
    ("query.answer_s", "s"),
    ("query.checkpoints", "count"),
    ("ingest.build_s", "s"),
    ("ingest.bytes_per_item", "bytes/item"),
    ("trace.overhead_frac", "fraction"),
]

QUERY_FOLD_KINDS = ("swor", "swr", "unweighted", "l1")


class Span:
    """Busy seconds and call count of one layer."""

    __slots__ = ("busy", "calls")

    def __init__(self) -> None:
        self.busy = 0.0
        self.calls = 0


class Ledger:
    """Per-layer spans and counts of one traced run."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = defaultdict(Span)
        self.counts: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    def timed(self, layer: str, fn, count=None):
        """``fn`` wrapped to add its time to ``layer``; ``count(args,
        result)`` then records the layer's work counts."""
        span = self.spans[layer]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            span.busy += perf() - t0
            span.calls += 1
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def wrap(self, obj, name: str, layer: str, count=None) -> None:
        """Shadow a bound method with a timed instance attribute."""
        method = getattr(obj, name, None)
        if method is not None:
            setattr(obj, name, self.timed(layer, method, count))

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Undo the module and class patches (instance attributes die
        with the run's objects)."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- what a traced run instruments ---------------------------------

    def instrument(self, instance, sharded: bool) -> None:
        counts = self.counts

        def site_out(args, result):
            counts["site.items_in"] += len(args[0])
            counts["site.entries_out"] += len(result)

        def fold_pack(args, result):
            counts["fold.entries_in"] += len(args[1])
            counts["fold.controls_out"] += len(result)

        def fold_message(args, result):
            counts["fold.entries_in"] += 1
            counts["fold.controls_out"] += len(result)

        for kind, network in instance.networks():
            coordinator = network.coordinator
            self.wrap(coordinator, "on_message_pack", f"fold:{kind}", fold_pack)
            self.wrap(coordinator, "on_message", f"fold:{kind}", fold_message)
            for name in ("record_upstream_pack", "record_upstream", "record_downstream"):
                self.wrap(network.counters, name, "accounting")
            if sharded:
                continue
            for site in network.sites:
                self.wrap(site, "on_columns", "site", site_out)
                self.wrap(site, "prepare_window", "site.prep")
                self.wrap(site, "on_control", "control")
        driver = getattr(instance, "driver", None)
        if driver is not None:
            for compiled in driver.compiled:
                self.wrap(compiled, "answer", "query.answer")
                if getattr(compiled, "network", None) is None:
                    self.wrap(compiled, "observe_columns", "query.sliding")
        if hasattr(columnar_module, "window_order"):
            self._patch(
                columnar_module,
                "window_order",
                self.timed("grouping", columnar_module.window_order),
            )
        self._patch_decode()

    def _patch_decode(self) -> None:
        """Time parent-side pack decoding; ``read_from`` calls
        ``from_arrays``, so only the outermost call is counted."""
        span = self.spans["transport"]
        counts = self.counts
        perf = time.perf_counter
        depth = [0]

        def timed_decode(func):
            def decode(cls, *args, **kwargs):
                if depth[0]:
                    return func(cls, *args, **kwargs)
                depth[0] = 1
                t0 = perf()
                try:
                    pack = func(cls, *args, **kwargs)
                finally:
                    depth[0] = 0
                span.busy += perf() - t0
                span.calls += 1
                counts["transport.bytes"] += sum(
                    column.nbytes for column in pack.to_arrays()[1].values()
                )
                return pack

            return classmethod(decode)

        for name in ("read_from", "from_arrays"):
            original = MessagePack.__dict__[name]
            self._patch(MessagePack, name, timed_decode(original.__func__))

    # -- the ledger of one run -----------------------------------------

    def metrics(self, wall: float, stats: dict, query_run: bool) -> Dict[str, float]:
        """Per-layer figures of this run (``stats``: the engine's
        ``last_run_stats``; ``query_run``: a multi-query driver run)."""
        spans, counts = self.spans, self.counts
        folds = {
            name.split(":", 1)[1]: span
            for name, span in spans.items()
            if name.startswith("fold:")
        }
        site = spans["site"]
        prep = spans["site.prep"]
        out: Dict[str, float] = {
            "grouping.busy_s": spans["grouping"].busy,
            "grouping.calls": spans["grouping"].calls,
            "site.prep_s": prep.busy,
            # The site pass is the shared per-window prep plus every
            # site's on_columns call.
            "site.busy_s": site.busy + prep.busy,
            "site.calls": site.calls,
            "site.items_in": counts["site.items_in"],
            "site.entries_out": counts["site.entries_out"],
            "site.send_ratio": (
                counts["site.entries_out"] / counts["site.items_in"]
                if counts["site.items_in"]
                else 0.0
            ),
            "fold.busy_s": sum(s.busy for s in folds.values()),
            "fold.calls": sum(s.calls for s in folds.values()),
            "fold.entries_in": counts["fold.entries_in"],
            "fold.controls_out": counts["fold.controls_out"],
            "accounting.busy_s": spans["accounting"].busy,
            "accounting.calls": spans["accounting"].calls,
            "control.busy_s": spans["control"].busy,
            "control.calls": spans["control"].calls,
            "transport.decode_s": spans["transport"].busy,
            "transport.decode_calls": spans["transport"].calls,
            "transport.bytes": counts["transport.bytes"],
        }
        for layer in ("grouping", "site", "fold", "accounting", "control"):
            out[f"{layer}.frac"] = out[f"{layer}.busy_s"] / wall
        for kind in QUERY_FOLD_KINDS:
            span = folds.get(kind)
            out[f"query.{kind}_fold_s"] = (
                span.busy if query_run and span is not None else 0.0
            )
        out["query.sliding_s"] = spans["query.sliding"].busy
        out["query.answer_s"] = spans["query.answer"].busy
        out.update(shard_metrics(stats))
        return out


def shard_metrics(stats: dict) -> Dict[str, float]:
    """The worker-side layers, read from a sharded run's stats (all
    zero for an in-process run)."""
    if stats.get("mode") != "sharded":
        stats = {}
    timing = stats.get("timing", {})
    windows = stats.get("windows", 0)
    rollbacks = stats.get("rollbacks", 0)
    spec = stats.get("speculation", {})
    guesses = spec.get("hits", 0) + spec.get("misses", 0)
    return {
        "transport.wait_s": timing.get("transport_wait_seconds", 0.0),
        "shard.worker_compute_s": timing.get("worker_compute_seconds", 0.0),
        "shard.parent_fold_s": timing.get("parent_fold_seconds", 0.0),
        "shard.windows": windows,
        "shard.rollbacks": rollbacks,
        "shard.commit_ratio": (
            windows / (windows + rollbacks) if windows else 0.0
        ),
        "shard.spec_hit_ratio": spec.get("hits", 0) / guesses if guesses else 0.0,
    }
