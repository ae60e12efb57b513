"""Distributed weighted sampling *with* replacement (Corollary 1).

The paper reduces weighted SWR to unweighted SWR [14] by conceptually
duplicating an item of weight ``w`` into ``w`` unit items, then removes
the ``O(w)`` blow-up with two tricks it spells out in the Corollary 1
proof, both implemented here:

* **aggregate coin** — for one single-item sampler at threshold ``τ``,
  the probability that *any* of the ``w`` duplicates would be forwarded
  is ``α(w, τ) = 1 - (1-τ)^w``; the site flips one coin instead of ``w``;
* **binomial batching** — across the ``s`` independent samplers, the
  number forwarding is ``Binomial(s, α)``; the site draws it once and
  picks a uniform subset of samplers (Floyd's algorithm,
  :func:`floyd_sample`), which (as the paper notes) equals the law of
  ``s`` independent decisions.

Keys: each sampler tracks the *minimum* of per-duplicate uniform keys;
``min`` of ``w`` uniforms has tail ``(1-x)^w``, so the item with the
global minimum key is a single weighted sample — exactly Definition 2
per sampler, independent across samplers.  Thresholds are maintained as
powers of ``β = 2 + k/s`` bracketing the worst (largest) per-sampler
minimum, giving the ``log(W)/log(2+k/s)`` round structure of [14].
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence, Set, Tuple, Union

import numpy as _np

from ..common.errors import ConfigurationError, ProtocolViolationError
from ..common.rng import RandomSource
from ..kernels import swr_min_fold
from ..net.counters import MessageCounters
from ..net.messages import Message, MessagePack, ROUND_UPDATE, SWR_SAMPLE
from ..runtime import (
    BROADCAST,
    CoordinatorAlgorithm,
    Engine,
    Network,
    SiteAlgorithm,
    get_engine,
)
from ..stream.item import DistributedStream, Item

__all__ = ["DistributedWeightedSWR"]


def floyd_sample(s: int, us: Sequence[float]) -> List[int]:
    """A uniform ``len(us)``-subset of ``range(s)``, ascending, by
    Floyd's algorithm over the uniforms ``us`` (each in ``[0, 1)``):
    step ``j`` picks ``t`` uniform in ``0..j`` and takes ``j`` instead
    when ``t`` is already chosen.  A full subset skips the loop."""
    if len(us) == s:
        return list(range(s))
    chosen: Set[int] = set()
    for j, u in zip(range(s - len(us), s), us):
        t = int(u * (j + 1))
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


class _SwrSite(SiteAlgorithm):
    """Site half of the SWR protocol.  Its one generator ``gen``
    draws, per sending arrival, the aggregate coin, the forwarded
    copies' keys and their sampler subset, in that order."""

    def __init__(self, sample_size: int, gen: _np.random.Generator) -> None:
        self.sample_size = sample_size
        self._gen = gen
        self._threshold = 1.0  # uniform keys live in (0,1)
        self.items_seen = 0

    def on_item(self, item: Item) -> List[Message]:
        self.items_seen += 1
        w = item.weight
        tau = self._threshold
        if tau >= 1.0:
            alpha = 1.0
        else:
            # alpha = 1 - (1-tau)^w, computed stably for tiny tau.
            alpha = -math.expm1(w * math.log1p(-tau))
        hits = self._gen.binomial(self.sample_size, alpha)
        if hits == 0:
            return []
        keys = [
            self._conditional_min_key(w, tau, alpha, u)
            for u in self._gen.random(hits).tolist()
        ]
        chosen = floyd_sample(self.sample_size, self._gen.random(hits).tolist())
        return [
            Message(SWR_SAMPLE, (sampler_id, item.ident, w, key))
            for sampler_id, key in zip(chosen, keys)
        ]

    def _draw_batch(self, weights: _np.ndarray) -> Tuple[Any, Optional[Any]]:
        """The bulk draw of :meth:`on_columns`.

        Draw order: one binomial per arrival (the Corollary 1 aggregate
        coin, over the ``s`` samplers at the batch-entry threshold),
        then one uniform per *forwarded* copy, transformed through the
        conditional min-of-``w``-uniforms law of
        :meth:`_conditional_min_key` with the same clamps.  The caller
        draws the sampler subsets afterwards.  Returns ``(hits,
        keys)``.
        """
        tau = self._threshold
        if tau >= 1.0:
            alphas = _np.ones(len(weights))
        else:
            alphas = -_np.expm1(weights * math.log1p(-tau))
        hits = self._gen.binomial(self.sample_size, alphas)
        total = int(hits.sum())
        if total == 0:
            return hits, None
        us = self._gen.random(total)
        rep_w = _np.repeat(weights, hits)
        xs = -_np.expm1(_np.log1p(-us * _np.repeat(alphas, hits)) / rep_w)
        if tau < 1.0:
            _np.minimum(xs, tau * (1.0 - 1e-12), out=xs)
        return hits, _np.maximum(xs, 1e-300, out=xs)

    def on_columns(
        self, idents: _np.ndarray, weights: _np.ndarray
    ) -> Union[MessagePack, List[Message], tuple]:
        """Vectorized Corollary 1 over a batch of arrivals.

        One :meth:`_draw_batch` replaces the per-item coins and keys,
        then one uniform draw feeds every sender's
        :func:`floyd_sample` sampler subset, in arrival order; the
        forwarded copies come back as one
        :class:`~repro.net.messages.MessagePack` with
        ``regular_kind=SWR_SAMPLE`` and the sampler index in the
        ``regular_extra`` column.  Single-item batches take the scalar
        ``on_item`` path (batch size 1 stays bit-identical to the
        reference engine)."""
        n = len(weights)
        if n <= 1:
            return SiteAlgorithm.on_columns(self, idents, weights)
        self.items_seen += n
        hits, keys = self._draw_batch(weights)
        if keys is None:
            return ()
        us = self._gen.random(len(keys)).tolist()
        samplers: List[int] = []
        off = 0
        for h in hits[hits > 0].tolist():
            samplers += floyd_sample(self.sample_size, us[off : off + h])
            off += h
        return MessagePack(
            regular_idents=_np.repeat(idents, hits),
            regular_weights=_np.repeat(weights, hits),
            regular_keys=keys,
            regular_kind=SWR_SAMPLE,
            regular_extra=_np.asarray(samplers, dtype=_np.int64),
        )

    @staticmethod
    def _conditional_min_key(w: float, tau: float, alpha: float, u: float) -> float:
        """Min-of-``w``-uniforms key conditioned on being below ``tau``,
        from the uniform ``u``.

        CDF ``F(x) = 1-(1-x)^w``; inverse of ``u*F(tau)`` is
        ``1 - (1 - u*alpha)^{1/w}``.
        """
        x = -math.expm1(math.log1p(-u * alpha) / w)
        if tau < 1.0:
            x = min(x, tau * (1.0 - 1e-12))
        return max(x, 1e-300)

    def on_control(self, message: Message) -> None:
        if message.kind != ROUND_UPDATE:
            raise ProtocolViolationError(
                f"SWR site got unexpected control {message.kind!r}"
            )
        (threshold,) = message.payload
        if threshold > self._threshold:
            raise ProtocolViolationError("SWR threshold increased")
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


class _SwrCoordinator(CoordinatorAlgorithm):
    """Coordinator half: per-sampler minimum keys + round broadcasts."""

    def __init__(self, sample_size: int, beta: float) -> None:
        self.sample_size = sample_size
        self.beta = beta
        self._min_keys: List[float] = [math.inf] * sample_size
        self._slots: List[Optional[Item]] = [None] * sample_size
        self._announced = 1.0
        self.rounds_announced = 0

    def on_message(self, site_id: int, message: Message) -> List[Tuple[int, Message]]:
        if message.kind != SWR_SAMPLE:
            raise ProtocolViolationError(f"SWR coordinator got {message.kind!r}")
        sampler_id, ident, weight, key = message.payload
        if key < self._min_keys[sampler_id]:
            self._min_keys[sampler_id] = key
            self._slots[sampler_id] = Item(ident, weight)
        return self._maybe_advance_round()

    def _maybe_advance_round(self) -> List[Tuple[int, Message]]:
        worst = max(self._min_keys)
        if not math.isfinite(worst) or worst <= 0.0:
            return []
        # Smallest beta-power >= worst (float-edge corrected).
        bracket = self._bracket_of(worst)
        if bracket < self._announced:
            self._announced = bracket
            self.rounds_announced += 1
            return [(BROADCAST, Message(ROUND_UPDATE, (bracket,)))]
        return []

    # -- bulk path: one pack per (site, batch) --------------------------

    def on_message_pack(self, site_id: int, pack: Any) -> List[Tuple[int, Message]]:
        """Vectorized per-sampler min-key fold of a whole site batch.

        One ``swr_min_fold`` pass (a stable lexsort) groups the
        pack's entries by sampler and finds each sampler's minimum key
        (first arrival wins ties, as the scalar strict-``<`` update
        does); ``Item`` objects are built only for the winners.  The fast path commits only when
        the folded state provably announces no round — the bracket of
        the folded worst-of-minima is monotone in the (only-decreasing)
        worst, so the final bracket decides whether *any*
        ``ROUND_UPDATE`` would fire mid-pack (mirroring
        ``EpochTracker.would_announce`` in the SWOR path).  Otherwise
        the pack replays message by message, reproducing broadcast
        count and timing exactly.
        """
        nr = pack.num_regular
        if nr == 0:
            return []
        if (
            nr <= 16  # numpy fold overhead dwarfs tiny packs
            or pack.num_early
            or pack.regular_kind != SWR_SAMPLE
        ):
            return CoordinatorAlgorithm.on_message_pack(self, site_id, pack)
        samplers = pack.regular_extra
        keys = pack.regular_keys
        # Stable per-sampler minimum: each sampler's head is its min
        # key, earliest arrival on ties, ascending sampler.
        heads = swr_min_fold(samplers, keys)
        winners: List[Tuple[int, int, float]] = []
        for i in heads.tolist():
            sid = int(samplers[i])
            key = float(keys[i])
            if key < self._min_keys[sid]:
                winners.append((sid, i, key))
        if winners:
            folded = list(self._min_keys)
            for sid, _, key in winners:
                folded[sid] = key
            worst = max(folded)
            if (
                math.isfinite(worst)
                and worst > 0.0
                and self._bracket_of(worst) < self._announced
            ):
                return CoordinatorAlgorithm.on_message_pack(self, site_id, pack)
            ids, ws = pack.regular_idents, pack.regular_weights
            for sid, i, key in winners:
                self._min_keys[sid] = key
                self._slots[sid] = Item(int(ids[i]), float(ws[i]))
        return []

    def _bracket_of(self, worst: float) -> float:
        """Smallest beta-power ``>= worst`` (the round bracket), with
        the same float-edge correction as :meth:`_maybe_advance_round`."""
        j = int(math.floor(-math.log(worst) / math.log(self.beta)))
        j = max(j, 0)
        bracket = self.beta**-j
        if bracket < worst:
            j -= 1
            bracket = self.beta**-j
        return bracket

    def sample(self) -> List[Item]:
        """One item per sampler slot — the with-replacement sample."""
        return [slot for slot in self._slots if slot is not None]

    def state_words(self) -> int:
        return 3 * self.sample_size + 2


class DistributedWeightedSWR:
    """Message-efficient distributed weighted SWR (Corollary 1).

    Parameters
    ----------
    num_sites / sample_size:
        ``k`` and ``s``.
    seed:
        Root seed for the sites' generators.
    engine / batch_size:
        Execution engine selection (name or instance; see
        :func:`repro.runtime.get_engine`).
    """

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
        self.beta = 2.0 + num_sites / sample_size
        self.engine = get_engine(engine, batch_size=batch_size)
        source = RandomSource(seed)
        self.sites = [
            _SwrSite(sample_size, source.generator(f"swr-site-{i}"))
            for i in range(num_sites)
        ]
        self.coordinator = _SwrCoordinator(sample_size, self.beta)
        self.network = Network(self.sites, self.coordinator)

    def run(self, stream: DistributedStream, **kwargs: Any) -> MessageCounters:
        """Replay a distributed stream; returns message counters."""
        kwargs.setdefault("engine", self.engine)
        return self.network.run(stream, **kwargs)

    def process(self, site_id: int, item: Item) -> None:
        self.network.step(site_id, item)

    def sample(self) -> List[Item]:
        """The current weighted sample *with* replacement (one per slot)."""
        return self.coordinator.sample()

    @property
    def counters(self) -> MessageCounters:
        return self.network.counters
