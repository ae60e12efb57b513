"""L1 (count) tracking via weighted SWOR keys — Section 5, Algorithm 1.

The coordinator continuously maintains ``W~ = (1±eps)·W_t``.  The
paper's construction: duplicate every update ``(e, w)`` into
``l = s/(2·eps)`` copies and feed them to the weighted SWOR machinery
with ``s = Θ(eps^-2·log(1/δ))``; the ``s``-th largest key ``u`` then
concentrates (Proposition 8 + Nagaraja) so that ``W~ = s·u/l``.

Duplication makes every copy at most an ``eps/(2s)`` heavy hitter the
moment its original finishes processing, so level sets saturate
instantly and are dropped entirely (Theorem 6's proof) — the tracker
uses the bare key/epoch machinery.

The ``l``-fold duplication is *simulated in O(1 + sends)* per update:

* while the site's epoch threshold is 0 it must literally forward every
  copy's key (each beats threshold 0) — this self-limits, because the
  coordinator's threshold rises after ``s`` keys and an epoch broadcast
  follows; the site's ``on_item`` is a generator, so under the
  synchronous driver the broadcast lands *between* copies, exactly like
  the paper's one-message-per-round model;
* once the threshold ``u`` is positive, each copy independently beats it
  with ``p = 1 - e^{-w/u}``, so the site jumps over non-senders with one
  Geometric(p) draw and generates only the sending copies' keys from the
  conditional (truncated-exponential) law.  Distributionally identical
  to materializing all ``l`` copies.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Tuple, Union

import numpy as _np

from ..common.errors import ConfigurationError, ProtocolViolationError
from ..common.rng import (
    MIN_EXPONENTIAL,
    MIN_UNIFORM,
    RandomSource,
    truncated_exponential_below,
)
from ..core.epochs import EpochTracker, fold_in_epoch_segments
from ..core.sample_set import TopKeySample
from ..net.counters import MessageCounters
from ..net.messages import EPOCH_UPDATE, Message, MessagePack, REGULAR
from ..runtime import (
    BROADCAST,
    CoordinatorAlgorithm,
    Engine,
    Network,
    SiteAlgorithm,
    get_engine,
)
from ..stream.item import DistributedStream, Item

__all__ = ["L1Tracker", "theorem6_sample_size", "theorem6_duplication"]


def theorem6_sample_size(eps: float, delta: float) -> int:
    """The proof's ``s = 10·log(1/delta)/eps^2`` (Theorem 6)."""
    if not 0 < eps < 1:
        raise ConfigurationError(f"eps must be in (0,1), got {eps}")
    if not 0 < delta < 1:
        raise ConfigurationError(f"delta must be in (0,1), got {delta}")
    return max(2, math.ceil(10.0 * math.log(1.0 / delta) / (eps * eps)))


def theorem6_duplication(s: int, eps: float) -> int:
    """The algorithm's ``l = s/(2·eps)`` copies per update."""
    if s <= 0:
        raise ConfigurationError(f"s must be positive, got {s}")
    return max(1, math.ceil(s / (2.0 * eps)))


class _L1Site(SiteAlgorithm):
    """Site half: duplication-aware key generation with geometric skips,
    every variate from the site's one generator ``gen``."""

    #: ``on_item`` yields lazily: each copy is delivered, and any epoch
    #: broadcast it triggers applied, before the next copy is drawn —
    #: an order a shard worker, which applies no control inside a
    #: site's window, cannot keep.
    shardable = False

    def __init__(self, duplication: int, gen: _np.random.Generator) -> None:
        self._dup = duplication
        self._gen = gen
        self._threshold = 0.0  # epoch floor r^j announced by coordinator
        self.items_seen = 0
        self.keys_sent = 0

    def on_item(self, item: Item) -> Iterator[Message]:
        """Yield one REGULAR message per *sending* duplicate.

        A generator so the synchronous driver delivers each message (and
        any resulting epoch broadcast) before the next duplicate is
        considered — matching the paper's round model.
        """
        self.items_seen += 1
        w = item.weight
        remaining = self._dup
        gen = self._gen
        while remaining > 0:
            u = self._threshold
            if u <= 0.0:
                # Threshold 0: every key passes; send this copy.
                v = w / max(gen.standard_exponential(), MIN_EXPONENTIAL)
                remaining -= 1
                self.keys_sent += 1
                yield Message(REGULAR, (item.ident, w, v))
                continue
            # P(copy's key beats u) = P(t < w/u).
            bound = w / u
            p = -math.expm1(-bound)
            if p <= 0.0:
                return
            if p >= 1.0:
                skip = 0
            else:
                x = max(gen.random(), MIN_UNIFORM)
                skip = int(math.floor(math.log(x) / math.log1p(-p)))
            if skip >= remaining:
                return
            remaining -= skip + 1
            t = truncated_exponential_below(gen.random(), bound)
            self.keys_sent += 1
            yield Message(REGULAR, (item.ident, w, w / t))

    def _draw_batch(self, weights):
        """The bulk draw of :meth:`on_columns`.

        Against the fixed batch-entry threshold ``u``, the number of a
        weight's ``l`` duplicates that beat it is ``Binomial(l, p)``
        with ``p = 1 - e^{-w/u}`` — the distribution the scalar path's
        geometric skips realize one jump at a time — and each sender's
        key comes from the truncated-exponential law of
        :func:`~repro.common.rng.truncated_exponential_below`,
        vectorized.  While ``u == 0`` every copy sends with an
        unconditional exponential key, exactly like the scalar path.
        Returns ``(counts, keys)`` with ``keys`` in arrival order,
        senders of one update contiguous.
        """
        n = len(weights)
        dup = self._dup
        gen = self._gen
        u = self._threshold
        if u <= 0.0:
            counts = _np.full(n, dup, dtype=_np.int64)
            draws = gen.standard_exponential(dup * n)
            _np.maximum(draws, MIN_EXPONENTIAL, out=draws)
            keys = _np.repeat(weights, dup) / draws
            return counts, keys
        bounds = weights / u
        ps = -_np.expm1(-bounds)
        counts = gen.binomial(dup, ps)
        total = int(counts.sum())
        if total == 0:
            return counts, None
        us = gen.random(total)
        rep_bound = _np.repeat(bounds, counts)
        mass = -_np.expm1(-rep_bound)
        ts = -_np.log1p(-us * mass)
        _np.maximum(ts, MIN_EXPONENTIAL, out=ts)
        _np.minimum(ts, rep_bound * (1.0 - 1e-12), out=ts)
        keys = _np.repeat(weights, counts) / ts
        return counts, keys

    def on_columns(self, idents, weights):
        """Vectorized duplication over a batch of arrivals.

        One :meth:`_draw_batch` replaces the per-update generator loop
        (whose batch-materialized semantics against the batch-stale
        threshold this path reproduces distribution-for-distribution),
        packed into one :class:`~repro.net.messages.MessagePack` of
        ``REGULAR`` columns — one entry per sending duplicate.  A
        single-item batch returns the scalar generator itself, so its
        messages interleave with the broadcasts they trigger and batch
        size 1 stays bit-identical to the reference engine."""
        n = len(weights)
        if n <= 1:
            return SiteAlgorithm.on_columns(self, idents, weights)
        self.items_seen += n
        counts, keys = self._draw_batch(weights)
        if keys is None:
            return ()
        self.keys_sent += len(keys)
        return MessagePack(
            regular_idents=_np.repeat(idents, counts),
            regular_weights=_np.repeat(weights, counts),
            regular_keys=keys,
        )

    def on_control(self, message: Message) -> None:
        if message.kind != EPOCH_UPDATE:
            raise ProtocolViolationError(
                f"L1 site got unexpected control {message.kind!r}"
            )
        (threshold,) = message.payload
        if threshold < self._threshold:
            raise ProtocolViolationError("L1 epoch threshold decreased")
        self._threshold = threshold

    def snapshot_state(self) -> tuple:
        """Value snapshot: the generator's state, the epoch threshold
        and the two counters."""
        return (
            self._gen.bit_generator.state,
            self._threshold,
            self.items_seen,
            self.keys_sent,
        )

    def restore_state(self, state: tuple) -> None:
        """Rewind to a snapshot of this site."""
        gen_state, self._threshold, self.items_seen, self.keys_sent = state
        self._gen.bit_generator.state = gen_state

    def state_words(self) -> int:
        return 2


class _L1Coordinator(CoordinatorAlgorithm):
    """Coordinator half: top-``s`` duplicate keys and the estimator."""

    def __init__(self, sample_size: int, duplication: int, r: float) -> None:
        self.sample_size = sample_size
        self.duplication = duplication
        self.sample_set = TopKeySample(sample_size)
        self.epochs = EpochTracker(r)
        # Exact duplicated weight received while no epoch has ever been
        # announced (all copies reach us until then).
        self._exact_duplicated_weight = 0.0
        self._announced_any = False

    def on_message(self, site_id: int, message: Message) -> List[Tuple[int, Message]]:
        if message.kind != REGULAR:
            raise ProtocolViolationError(f"L1 coordinator got {message.kind!r}")
        ident, weight, key = message.payload
        if not self._announced_any:
            self._exact_duplicated_weight += weight
        if key <= self.sample_set.threshold:
            return []
        self.sample_set.add(Item(ident, weight), key)
        announce = self.epochs.observe_threshold(self.sample_set.threshold)
        if announce is None:
            return []
        self._announced_any = True
        return [(BROADCAST, Message(EPOCH_UPDATE, (announce,)))]

    # -- bulk path: one pack per (site, batch) --------------------------

    def on_message_pack(self, site_id: int, pack) -> List[Tuple[int, Message]]:
        """Columnar fold of a whole site batch of duplicate keys, in
        epoch segments (:func:`~repro.core.epochs.fold_in_epoch_segments`,
        shared with the SWOR coordinator): one fused fold and one commit
        per segment, each segment ending where sequential delivery's
        threshold reaches the next bracket floor and an
        ``EPOCH_UPDATE`` fires.  Before the first announce the exact
        duplicated weight accumulates over the same prefix, in the same
        left-fold order as per-message delivery, so responses, sample,
        epochs and the exact-regime estimate are bit-identical to
        replaying the pack message by message.
        """
        nr = pack.num_regular
        if nr == 0:
            return []
        if (
            nr <= 16  # numpy fold overhead dwarfs tiny packs
            or pack.num_early
            or pack.regular_kind != REGULAR
        ):
            return CoordinatorAlgorithm.on_message_pack(self, site_id, pack)
        weights = pack.regular_weights
        announcements, _ = fold_in_epoch_segments(
            self.sample_set, self.epochs, pack.regular_idents, weights, pack.regular_keys
        )
        if not self._announced_any:
            # The messages up to and including the first announce.
            stop = announcements[0][0] if announcements else nr
            for w in weights[:stop].tolist():
                self._exact_duplicated_weight += w
            self._announced_any = bool(announcements)
        return [
            (BROADCAST, Message(EPOCH_UPDATE, (floor,))) for _, floor in announcements
        ]

    def estimate(self) -> float:
        """``W~``: the Theorem 6 estimator ``s·u/l``.

        Before the first epoch broadcast every duplicate reached the
        coordinator, so the exact (duplicated) weight is known and
        returned instead — the estimator needs a full sample set and a
        positive threshold to concentrate.
        """
        if not self._announced_any or not self.sample_set.full:
            return self._exact_duplicated_weight / self.duplication
        u = self.sample_set.threshold
        return self.sample_size * u / self.duplication

    def state_words(self) -> int:
        return 3 * len(self.sample_set) + 3


class L1Tracker:
    """Distributed L1 (count) tracker with ``(1±eps)`` guarantees.

    Parameters
    ----------
    num_sites:
        ``k``.
    eps:
        Relative error.
    delta:
        Failure probability at any fixed query time.
    seed:
        Root seed.
    sample_size_override / duplication_override:
        Replace the Theorem 6 settings (used by scaled-down tests).
    engine / batch_size:
        Execution engine selection (name or instance; see
        :func:`repro.runtime.get_engine`).  Under the columnar engines
        the site's duplicate generator materializes per batch against a
        batch-stale threshold, so early batches may forward more copies
        than the synchronous round model; the coordinator's top-``s``
        filter discards them without biasing the estimator.
    """

    def __init__(
        self,
        num_sites: int,
        eps: float,
        delta: float = 0.1,
        seed: Optional[int] = None,
        sample_size_override: Optional[int] = None,
        duplication_override: Optional[int] = None,
        engine: Union[str, Engine, None] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        if num_sites <= 0:
            raise ConfigurationError(f"num_sites must be positive, got {num_sites}")
        if not 0 < eps < 1:
            raise ConfigurationError(f"eps must be in (0,1), got {eps}")
        self.num_sites = num_sites
        self.eps = eps
        self.delta = delta
        self.sample_size = (
            sample_size_override
            if sample_size_override is not None
            else theorem6_sample_size(eps, delta)
        )
        self.duplication = (
            duplication_override
            if duplication_override is not None
            else theorem6_duplication(self.sample_size, eps)
        )
        self.r = max(2.0, num_sites / self.sample_size)
        self.engine = get_engine(engine, batch_size=batch_size)
        source = RandomSource(seed)
        self.sites = [
            _L1Site(self.duplication, source.generator(f"l1-site-{i}"))
            for i in range(num_sites)
        ]
        self.coordinator = _L1Coordinator(self.sample_size, self.duplication, self.r)
        self.network = Network(self.sites, self.coordinator)

    def process(self, site_id: int, item: Item) -> None:
        """Feed one arrival at one site."""
        self.network.step(site_id, item)

    def run(self, stream: DistributedStream, **kwargs) -> MessageCounters:
        """Replay a whole distributed stream."""
        kwargs.setdefault("engine", self.engine)
        return self.network.run(stream, **kwargs)

    def estimate(self) -> float:
        """Current ``W~ = (1±eps)·W_t`` (w.p. ``1-delta`` at a fixed t)."""
        return self.coordinator.estimate()

    @property
    def counters(self) -> MessageCounters:
        return self.network.counters
