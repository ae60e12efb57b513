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
import random
from typing import Iterator, List, Optional, Tuple, Union

import numpy as _np

from ..common.errors import ConfigurationError, ProtocolViolationError
from ..common.rng import (
    BatchRandom,
    RandomSource,
    exponential,
    truncated_exponential_below,
)
from ..core.epochs import EpochTracker
from ..core.sample_set import TopKeySample
from ..kernels import swor_fold_regulars
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
    """Site half: duplication-aware key generation with geometric skips."""

    def __init__(
        self, duplication: int, rng: random.Random
    ) -> None:
        self._dup = duplication
        self._rng = rng
        self._threshold = 0.0  # epoch floor r^j announced by coordinator
        self._batch_rng: Optional[BatchRandom] = None
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
        rng = self._rng
        while remaining > 0:
            u = self._threshold
            if u <= 0.0:
                # Threshold 0: every key passes; send this copy.
                v = w / exponential(rng)
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
                x = rng.random()
                while x <= 0.0:
                    x = rng.random()
                skip = int(math.floor(math.log(x) / math.log1p(-p)))
            if skip >= remaining:
                return
            remaining -= skip + 1
            t = truncated_exponential_below(rng, bound)
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
        if self._batch_rng is None:
            self._batch_rng = BatchRandom(self._rng)
        u = self._threshold
        if u <= 0.0:
            counts = _np.full(n, dup, dtype=_np.int64)
            draws = self._batch_rng.exponentials(dup * n)
            keys = _np.repeat(weights, dup) / draws
            return counts, keys
        bounds = weights / u
        ps = -_np.expm1(-bounds)
        counts = self._batch_rng.binomials(dup, ps)
        total = int(counts.sum())
        if total == 0:
            return counts, None
        us = self._batch_rng.uniforms(total)
        rep_bound = _np.repeat(bounds, counts)
        mass = -_np.expm1(-rep_bound)
        ts = -_np.log1p(-us * mass)
        _np.minimum(ts, rep_bound * (1.0 - 1e-12), out=ts)
        keys = _np.repeat(weights, counts) / ts
        return counts, keys

    def on_columns(self, idents, weights, prep=None):
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
        epoch segments.

        A segment ends at the message whose key completes the ``s``-th
        key at or above the next bracket floor ``B``
        (:meth:`~repro.core.epochs.EpochTracker.next_floor`): that is
        exactly where sequential delivery's threshold ``u`` (the
        ``s``-th largest key of the set plus the messages so far)
        reaches ``B`` and an ``EPOCH_UPDATE`` fires.  The completing
        key is ``>= B > u``, so sequential delivery accepts it too;
        keys it rejects are ``<= u`` and never enter the top ``s``.
        Each segment is one fused ``swor_fold_regulars`` call and one
        :meth:`~repro.core.sample_set.TopKeySample.fold_selected`
        commit, then one ``observe_threshold`` — a jump across several
        brackets announces once, as sequential delivery does.  Before
        the first announce the exact duplicated weight accumulates in
        the same left-fold order as per-message delivery, so responses,
        sample, epochs and the exact-regime estimate are bit-identical
        to replaying the pack message by message.
        """
        nr = pack.num_regular
        if nr == 0:
            return []
        if (
            nr <= 16  # numpy fold overhead dwarfs tiny packs
            or pack.num_early
            or pack.regular_kind != REGULAR
        ):
            return self._replay_pack(site_id, pack)
        idents = pack.regular_idents
        weights = pack.regular_weights
        keys = pack.regular_keys
        sample_set = self.sample_set
        responses: List[Tuple[int, Message]] = []
        lo = 0
        while lo < nr:
            floor = self.epochs.next_floor()
            # u < floor (every threshold change was observed), so fewer
            # than s set keys reach the floor and need >= 1.
            need = self.sample_size - int(_np.count_nonzero(sample_set.keys >= floor))
            crossing = _np.flatnonzero(keys[lo:] >= floor)
            hi = lo + int(crossing[need - 1]) + 1 if len(crossing) >= need else nr
            if not self._announced_any:
                # Same left-fold float order as per-message accumulation.
                for w in weights[lo:hi].tolist():
                    self._exact_duplicated_weight += w
            seg_keys = keys[lo:hi]
            fold = swor_fold_regulars(
                seg_keys, sample_set.threshold, sample_set.keys, self.sample_size
            )
            if len(fold[0]):
                sample_set.fold_selected(
                    idents[lo:hi], weights[lo:hi], seg_keys, *fold
                )
                announce = self.epochs.observe_threshold(sample_set.threshold)
                if announce is not None:
                    self._announced_any = True
                    responses.append(
                        (BROADCAST, Message(EPOCH_UPDATE, (announce,)))
                    )
            lo = hi
        return responses

    def _replay_pack(
        self, site_id: int, pack
    ) -> List[Tuple[int, Message]]:
        """Exact sequential semantics for packs the fast path declines
        — the interface default's expand-and-replay loop."""
        return CoordinatorAlgorithm.on_message_pack(self, site_id, pack)

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
            _L1Site(self.duplication, source.substream(f"l1-site-{i}"))
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
