"""Distributed *unweighted* SWOR — the [11]/[31] baseline protocol.

The thresholded-uniform-key protocol that the paper's weighted algorithm
generalizes: every item gets a uniform key, the coordinator keeps the
``s`` smallest keys, and sites filter against a broadcast bracket of the
``s``-th smallest key (powers of ``1/r``, ``r = max(2, k/s)``).

Used two ways: as the baseline whose lower bound (Theorem 2) transfers
to weighted SWOR (Corollary 2), and as an independently-implemented
cross-check — on unit-weight streams the weighted protocol must match
this one's sample law and message shape.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple, Union

import numpy as _np

from ..common.errors import ConfigurationError, ProtocolViolationError
from ..common.rng import MIN_UNIFORM, RandomSource
from ..kernels import swor_fold_regulars
from ..net.counters import MessageCounters
from ..net.messages import Message, MessagePack, REGULAR, ROUND_UPDATE
from ..runtime import (
    BROADCAST,
    CoordinatorAlgorithm,
    Engine,
    Network,
    SiteAlgorithm,
    get_engine,
)
from ..stream.item import DistributedStream, Item
from .sample_set import TopKeySample

__all__ = ["DistributedUnweightedSWOR"]


class _UnweightedSite(SiteAlgorithm):
    """Site half: forward items whose uniform key beats the bracket.
    Its one generator ``gen`` draws the keys, clamped to
    :data:`~repro.common.rng.MIN_UNIFORM` on both paths."""

    def __init__(self, gen: _np.random.Generator) -> None:
        self._gen = gen
        self._threshold = 1.0  # keys live in (0,1); start unfiltered
        self.items_seen = 0

    def on_item(self, item: Item) -> List[Message]:
        self.items_seen += 1
        key = max(self._gen.random(), MIN_UNIFORM)
        if key < self._threshold:
            return [Message(REGULAR, (item.ident, item.weight, key))]
        return []

    def on_columns(
        self, idents: _np.ndarray, weights: _np.ndarray
    ) -> Union[MessagePack, List[Message], tuple]:
        """Bulk path: one uniform draw (the keys the per-item path would
        draw, in order), filtered against the
        (possibly one-batch-stale) round threshold; the coordinator's
        top-``s`` sample discards any extra passes.  The passers come back
        as one :class:`~repro.net.messages.MessagePack` of parallel
        columns — no ``Item`` or ``Message`` objects.  Single-item
        batches take the scalar ``on_item`` path (batch size 1 stays
        bit-identical to the reference engine)."""
        n = len(weights)
        if n <= 1:
            return SiteAlgorithm.on_columns(self, idents, weights)
        self.items_seen += n
        keys = self._gen.random(n)
        _np.maximum(keys, MIN_UNIFORM, out=keys)
        send = keys < self._threshold
        num_send = int(_np.count_nonzero(send))
        if num_send == 0:
            return ()
        if num_send != n:
            idents = idents[send]
            weights = weights[send]
            keys = keys[send]
        return MessagePack(
            regular_idents=idents,
            regular_weights=weights,
            regular_keys=keys,
        )

    def on_control(self, message: Message) -> None:
        if message.kind != ROUND_UPDATE:
            raise ProtocolViolationError(
                f"unweighted site got unexpected control {message.kind!r}"
            )
        (threshold,) = message.payload
        if threshold > self._threshold:
            raise ProtocolViolationError("unweighted threshold increased")
        self._threshold = threshold

    def snapshot_state(self) -> tuple:
        """Value snapshot: the generator's state, the round threshold
        and ``items_seen``."""
        return (self._gen.bit_generator.state, self._threshold, self.items_seen)

    def restore_state(self, state: tuple) -> None:
        """Rewind to a snapshot of this site or of a copy of it."""
        gen_state, self._threshold, self.items_seen = state
        self._gen.bit_generator.state = gen_state

    def state_words(self) -> int:
        return 2


class _UnweightedCoordinator(CoordinatorAlgorithm):
    """Coordinator half: keep the ``s`` smallest keys; bracket-broadcast.

    The ``s`` smallest keys are the ``s`` largest *negated* keys, so the
    sample is a :class:`~repro.core.sample_set.TopKeySample` over
    ``-key`` (negation is exact, and equal keys stay oldest first)."""

    def __init__(self, sample_size: int, r: float) -> None:
        self.sample_size = sample_size
        self.r = r
        self.sample_set = TopKeySample(sample_size)
        self._epoch = 0  # threshold bracket r^-epoch currently announced

    @property
    def threshold(self) -> float:
        """``s``-th smallest key (1.0 while underfull)."""
        if not self.sample_set.full:
            return 1.0
        return -self.sample_set.threshold

    def on_message(self, site_id: int, message: Message) -> List[Tuple[int, Message]]:
        if message.kind != REGULAR:
            raise ProtocolViolationError(
                f"unweighted coordinator got {message.kind!r}"
            )
        ident, weight, key = message.payload
        if self.sample_set.full and key >= self.threshold:
            return []
        self.sample_set.add(Item(ident, weight), -key)
        u = self.threshold
        if u >= 1.0 or u <= 0.0:
            return []
        new_epoch = int(math.floor(-math.log(u) / math.log(self.r)))
        if new_epoch > self._epoch:
            self._epoch = new_epoch
            bracket = self.r**-new_epoch
            return [(BROADCAST, Message(ROUND_UPDATE, (bracket,)))]
        return []

    # -- bulk path: one pack per (site, batch) --------------------------

    def on_message_pack(self, site_id: int, pack: Any) -> List[Tuple[int, Message]]:
        """Columnar fold of a whole site batch into the sample.

        Mirrors :meth:`repro.core.coordinator.SworCoordinator.on_message_pack`
        over negated keys: one fused ``swor_fold_regulars`` call masks
        the pack against the entry threshold and selects the merged
        top ``s``, and one
        :meth:`~repro.core.sample_set.TopKeySample.fold_selected`
        commits it — taken only when it is provably indistinguishable
        from sequential delivery (sample already full, unambiguous
        selection boundary, and the merged threshold stays inside the
        current epoch bracket so no ``ROUND_UPDATE`` broadcast fires
        mid-pack).  Otherwise the pack replays message by message,
        reproducing the exact per-round semantics including broadcast
        count and timing.  ``Item`` objects are built only for
        candidates that enter the sample.
        """
        nr = pack.num_regular
        if nr == 0:
            return []
        if (
            nr <= 16  # numpy fold overhead dwarfs tiny packs
            or pack.num_early
            or pack.regular_kind != REGULAR
            or not self.sample_set.full
        ):
            # Underfull warm-up (threshold still 1.0, epochs may fire
            # per message), a tiny pack, or a foreign shape: exact
            # replay — always bit-identical, and for tiny packs as
            # cheap as per-message delivery.
            return CoordinatorAlgorithm.on_message_pack(self, site_id, pack)
        neg_keys = -pack.regular_keys
        fold = swor_fold_regulars(
            neg_keys,
            self.sample_set.threshold,
            self.sample_set.keys,
            self.sample_size,
        )
        if len(fold[0]) == 0:
            return []
        cut = -fold[2]
        replay = fold[3] != 1
        if not replay and 0.0 < cut < 1.0:
            # Would the merged threshold cross a bracket?  Epochs are
            # monotone in the (only-decreasing) threshold, so the final
            # epoch decides whether any broadcast fires inside the pack.
            replay = (
                int(math.floor(-math.log(cut) / math.log(self.r)))
                > self._epoch
            )
        if replay:
            return CoordinatorAlgorithm.on_message_pack(self, site_id, pack)
        self.sample_set.fold_selected(
            pack.regular_idents, pack.regular_weights, neg_keys, *fold
        )
        return []

    def sample(self) -> List[Item]:
        """Current uniform SWOR (increasing key order)."""
        return self.sample_set.items()

    def sample_with_keys(self) -> List[Tuple[Item, float]]:
        """``(item, key)`` pairs in increasing key order — the input
        shape :func:`repro.query.estimators.count_from_uniform_sample`
        expects."""
        return [(item, -key) for item, key in self.sample_set.entries()]

    def state_words(self) -> int:
        return 3 * len(self.sample_set) + 2


class DistributedUnweightedSWOR:
    """Facade mirroring :class:`~repro.core.protocol.DistributedWeightedSWOR`."""

    def __init__(
        self,
        num_sites: int,
        sample_size: int,
        seed: Optional[int] = None,
        engine: Union[str, Engine, None] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        if num_sites <= 0 or sample_size <= 0:
            raise ConfigurationError("num_sites and sample_size must be positive")
        self.num_sites = num_sites
        self.sample_size = sample_size
        self.r = max(2.0, num_sites / sample_size)
        self.engine = get_engine(engine, batch_size=batch_size)
        source = RandomSource(seed)
        self.sites = [
            _UnweightedSite(source.generator(f"usite-{i}"))
            for i in range(num_sites)
        ]
        self.coordinator = _UnweightedCoordinator(sample_size, self.r)
        self.network = Network(self.sites, self.coordinator)

    def run(self, stream: DistributedStream, **kwargs: Any) -> MessageCounters:
        """Replay a distributed stream; returns message counters."""
        kwargs.setdefault("engine", self.engine)
        return self.network.run(stream, **kwargs)

    def process(self, site_id: int, item: Item) -> None:
        self.network.step(site_id, item)

    def sample(self) -> List[Item]:
        """The current uniform sample without replacement."""
        return self.coordinator.sample()

    def sample_with_keys(self) -> List[Tuple[Item, float]]:
        """``(item, key)`` pairs in increasing key order."""
        return self.coordinator.sample_with_keys()

    @property
    def counters(self) -> MessageCounters:
        return self.network.counters
