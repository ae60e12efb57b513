"""Site-side algorithm for distributed weighted SWOR (paper Algorithm 1).

Per arrival the site does O(1) work:

1. compute the item's level ``j``;
2. if ``D_j`` is (as far as the site knows) unsaturated, forward the raw
   item as an *early* message — no key is generated at the site;
3. otherwise generate the precision-sampling key ``v = w/t`` and send a
   *regular* message iff ``v`` beats the last epoch threshold the
   coordinator announced.

Control traffic updates the site's two pieces of state: the saturated-
level bitmask and the epoch threshold ``u_i`` — together O(1) machine
words, the paper's optimal site space (Proposition 6).

Snapshot contract: ``snapshot_state()``/``restore_state()`` must cover
every attribute protocol methods mutate — the sharded engine's
rollback replays from these snapshots and any uncovered attribute
breaks bit-parity only on the rare rollback paths.  reprolint rule
R003 checks this statically; derived caches that rebuild themselves
are exempted explicitly via ``_SNAPSHOT_EXCLUDE``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import Any, List, Optional, Tuple, Union

import numpy as _np

from ..common.errors import ProtocolViolationError
from ..common.rng import MIN_EXPONENTIAL, BatchRandom, LazyExponential, exponential
from ..kernels import active as _active_kernels
from ..net.messages import (
    EARLY,
    EPOCH_UPDATE,
    LEVEL_SATURATED,
    Message,
    MessagePack,
    REGULAR,
)
from ..runtime import SiteAlgorithm
from ..stream.item import Item
from .config import SworConfig
from .levels import level_of, levels_of_array

__all__ = ["SworSite"]


class _WindowPrep:
    """Per-window shared context built by :meth:`SworSite.prepare_window`.

    ``levels`` spans the whole (site-sorted) window and is exact for
    every arrival that can possibly be early under ``mask`` (it may be
    a zero-filled placeholder for arrivals of provably saturated
    levels, whose level index no consumer reads); ``saturated`` is the
    per-arrival saturation lookup (``None`` when ``all_saturated``), and
    ``all_saturated`` short-circuits the common steady-state window
    where nothing is early.

    When the engine hands over the window's runs, the window pass
    fills the last three fields: ``runs`` holds the runs the engine
    must still call ``on_columns`` for (every run, in order, minus the
    early-free runs the pass finished because none of their keys beat
    the window-start threshold), ``keys`` the window-length key column
    of the early-free runs, and ``drawn`` those runs' start positions
    (their ``on_columns`` only re-filters the keys).
    """

    __slots__ = (
        "levels",
        "mask",
        "saturated",
        "all_saturated",
        "early_positions",
        "runs",
        "keys",
        "drawn",
    )

    def __init__(
        self,
        levels: Any,
        mask: int,
        saturated: Any,
        all_saturated: bool,
        early_positions: Optional[List[int]] = None,
        runs: Optional[list] = None,
    ) -> None:
        self.levels = levels
        self.mask = mask
        self.saturated = saturated
        self.all_saturated = all_saturated
        #: Sorted window positions of the early arrivals (when known):
        #: lets each site bisect its [start, end) slice instead of
        #: reducing a boolean array to discover "no earlies here".
        self.early_positions = early_positions
        self.runs = runs
        self.keys: Any = None
        self.drawn: Any = ()


class SworSite(SiteAlgorithm):
    """One site of the weighted-SWOR protocol.

    Parameters
    ----------
    site_id:
        This site's index in ``0..k-1``.
    config:
        Shared protocol parameters.
    rng:
        Site-local randomness (independent across sites).
    """

    #: Derived cache, keyed by ``_saturated_mask`` and rebuilt on any
    #: mismatch — safe to omit from snapshot/restore (reprolint R003).
    _SNAPSHOT_EXCLUDE = ("_sat_table", "_sat_table_mask")

    def __init__(self, site_id: int, config: SworConfig, rng: random.Random) -> None:
        self.site_id = site_id
        self.config = config
        self._rng = rng
        self._r = config.r
        # Bitmask of saturated levels (level j -> bit j): O(1) words for
        # any realistic W since levels top out at log_r(W).
        self._saturated_mask = 0
        self._threshold = 0.0  # u_i, last announced epoch floor r^j
        self._batch_rng: Optional[BatchRandom] = None
        # Saturation lookup table cache for the columnar path (rebuilt
        # only when the mask changes or a deeper level appears).
        self._sat_table = None
        self._sat_table_mask = -1
        self.items_seen = 0
        self.exponentials_generated = 0
        self.bits_generated = 0

    # -- SiteAlgorithm interface ------------------------------------

    def on_item(self, item: Item) -> List[Message]:
        """Algorithm 1 main loop for one arrival."""
        self.items_seen += 1
        if self.config.level_sets_enabled:
            level = level_of(item.weight, self._r)
            if not (self._saturated_mask >> level) & 1:
                return [Message(EARLY, (item.ident, item.weight))]
        if self.config.count_bits:
            return self._regular_lazy(item)
        return self._regular_fast(item)

    def prepare_window(
        self, weights: _np.ndarray, runs: Optional[list] = None
    ) -> "Optional[_WindowPrep]":
        """Shared per-window precomputation for the columnar engines.

        Levels and the saturation lookup are pure functions of the
        weights, the shared config, and the saturation mask — and every
        site's mask is broadcast-synchronized, so one computation on
        the window's site-sorted weight column serves every site (each
        :meth:`on_columns` call still *verifies* its own mask against
        the context and recomputes locally in the rare mid-window
        divergence between a ``LEVEL_SATURATED`` broadcast and the
        sites processed before it).  Returns ``None`` when there is
        nothing to share (level sets disabled).

        ``runs`` — the window's ``(site_id, site, start, end)`` runs in
        ascending site order, ``site`` one of this site's peers — turns
        on the window pass: every *early-free* run (at least 2 arrivals,
        none in a level this window-start mask leaves unsaturated) gets
        its regular keys here, and the runs none of whose keys beat the
        lowest window-start threshold among them are finished here too
        (:meth:`_draw_early_free`).  The engine then calls
        :meth:`on_columns` only for the context's ``runs``.  Without
        ``runs``, in warm-up (mask 0) and in ``count_bits`` mode every
        site takes its own per-site path.
        """
        if not self.config.level_sets_enabled:
            return None
        mask = self._saturated_mask
        if mask == 0:
            # Warm-up: everything is early, so every level is consumed.
            return _WindowPrep(
                levels_of_array(weights, self._r), 0, None, False, runs=runs
            )
        # Saturation typically fills from the bottom first: let J be the
        # lowest unsaturated level.  For J >= 1, any weight below r^J
        # lies in a level < J — all saturated (level_of maps every
        # w < r, sub-1 weights included, to level 0) — so only the
        # (rare) heavy tail w >= r^J needs exact level computation.  The
        # threshold is shaded down by 1e-9 so a 1-ulp power discrepancy
        # can only over-include (over-included items just get exact
        # levels).  J == 0 (level 0 open under a nonzero mask) proves
        # nothing about any weight, so everything gets exact levels.
        lowest_open = 0
        while (mask >> lowest_open) & 1:
            lowest_open += 1
        heavy_floor = (
            0.0
            if lowest_open == 0
            else (self._r**lowest_open) * (1.0 - 1e-9)
        )
        levels, saturated, early_positions = _active_kernels().window_split(
            weights, self._r, heavy_floor, self._mask_table()
        )
        if len(early_positions) == 0:
            prep = _WindowPrep(None, mask, None, True, runs=runs)
        else:
            prep = _WindowPrep(
                levels, mask, saturated, False, early_positions.tolist(), runs
            )
        if runs is not None and not self.config.count_bits:
            self._draw_early_free(prep, weights, runs)
        return prep

    @staticmethod
    def _draw_early_free(
        prep: "_WindowPrep", weights: _np.ndarray, runs: list
    ) -> None:
        """The window pass over ``runs`` (see :meth:`prepare_window`).

        Each early-free run draws its ``end - start`` exponentials from
        its own site's :class:`~repro.common.rng.BatchRandom` into its
        slice of one window-length column — the count and order its
        :meth:`on_columns` would draw — and books them with its
        ``items_seen``.  Then one clamp, one division and one per-run
        maximum cover the span from the first drawn run to the last.  A
        run whose largest key does not beat the lowest window-start
        threshold of the drawn runs is finished: it would send nothing,
        since thresholds only rise.
        The rest stay in ``prep.runs`` and re-filter against their
        live threshold.  An early-free run stays early-free under any
        later mask (levels only saturate), so a mid-window
        ``LEVEL_SATURATED`` cannot change its draw count.
        """
        early = prep.early_positions
        keys: Optional[_np.ndarray] = None
        drawn: List[int] = []
        drawn_starts: List[int] = []
        last_end = 0
        threshold = math.inf
        for j, (_, site, start, end) in enumerate(runs):
            n = end - start
            if n < 2 or (
                early is not None
                and bisect_left(early, start) != bisect_left(early, end)
            ):
                continue
            if keys is None:
                # Gaps between drawn runs get key w/inf = 0, which
                # never beats a threshold.
                keys = _np.full(len(weights), _np.inf)
            batch = site._batch_rng
            if batch is None:
                batch = site._batch_rng = BatchRandom(site._rng)
            batch.exponentials(n, out=keys[start:end])
            site.items_seen += n
            site.exponentials_generated += n
            if site._threshold < threshold:
                threshold = site._threshold
            drawn.append(j)
            drawn_starts.append(start)
            last_end = end
        if keys is None:
            return
        span = keys[drawn_starts[0] : last_end]
        _np.maximum(span, MIN_EXPONENTIAL, out=span)
        _np.divide(weights[drawn_starts[0] : last_end], span, out=span)
        # Each segment runs to the next drawn start (the last one to
        # the span's end): its extra positions hold key 0, so the
        # maximum is the drawn run's own.
        beats = (
            _np.maximum.reduceat(keys[:last_end], drawn_starts) > threshold
        ).tolist()
        finished = {j for j, beat in zip(drawn, beats) if not beat}
        if finished:
            prep.runs = [run for j, run in enumerate(runs) if j not in finished]
        prep.keys = keys
        prep.drawn = set(drawn_starts)

    def _saturation_table(self, max_level: int) -> _np.ndarray:
        """Cached bool table ``table[j] = level j saturated``.

        Shared by every bulk path (``on_columns``, ``prepare_window``,
        the fused multi-query pass) and rebuilt
        only when the mask changes — a ``LEVEL_SATURATED`` broadcast, a
        handful of times per run — or a deeper level appears.
        """
        table = self._sat_table
        if (
            table is None
            or self._sat_table_mask != self._saturated_mask
            or len(table) <= max_level
        ):
            mask = self._saturated_mask
            size = max(max_level + 1, 64)
            table = _np.fromiter(
                ((mask >> j) & 1 for j in range(size)),
                dtype=_np.bool_,
                count=size,
            )
            self._sat_table = table
            self._sat_table_mask = mask
        return table

    def _mask_table(self) -> _np.ndarray:
        """The saturation table sized to cover every set mask bit —
        the form the ``window_split`` kernel wants (levels beyond the
        table are unsaturated by construction, since the table spans
        the mask's bit length)."""
        return self._saturation_table(
            max(63, self._saturated_mask.bit_length() - 1)
        )

    def on_columns(
        self,
        idents: _np.ndarray,
        weights: _np.ndarray,
        prep: Optional[Tuple["_WindowPrep", int, int]] = None,
    ) -> Union[MessagePack, List[Message], tuple]:
        """Vectorized Algorithm 1 over a batch of arrivals.

        One numpy pass replaces the per-item interpreter dispatch: the
        whole batch's levels are computed at once, the saturation
        bitmask is applied as a table lookup, and all regular keys come
        from a single batch exponential draw (one
        :class:`~repro.common.rng.BatchRandom`) filtered against the
        epoch threshold.  The result is a single
        :class:`~repro.net.messages.MessagePack` of parallel arrays —
        no ``Item`` and no per-message ``Message`` objects (an empty
        tuple when the batch sends nothing).

        An early-free run that the window pass of
        :meth:`prepare_window` already drew and counted (``prep``'s
        start is in the context's ``drawn``) only re-filters its keys
        from the context's column against the live threshold; the pass
        finished the early-free runs that had nothing to send, so the
        engine does not call them at all.

        Takes the scalar ``on_item`` path (returning plain messages)
        for single-item batches, which keeps batch size 1 bit-identical
        to the reference engine, and in ``count_bits`` mode, whose
        bit-by-bit generation is inherently sequential.
        """
        n = len(weights)
        if n <= 1 or self.config.count_bits:
            return SiteAlgorithm.on_columns(self, idents, weights)
        if prep is not None and prep[1] in prep[0].drawn:
            # An early-free run the window pass drew and counted: only
            # re-filter its keys against the live threshold, which a
            # mid-window EPOCH_UPDATE may have raised.
            keys = prep[0].keys[prep[1] : prep[2]]
            return self._pack_above_threshold((), idents, weights, keys)
        self.items_seen += n
        early_idents: Optional[Any] = None
        early_weights: Optional[Any] = None
        early_levels: Optional[Any] = None
        regular_idents, regular_weights = idents, weights
        if self.config.level_sets_enabled:
            mask = self._saturated_mask
            if prep is not None and prep[0].mask == mask:
                wctx, start, end = prep
                levels: Any = None  # sliced lazily below
                saturated: Any = None
                if not mask:
                    # Warm-up: nothing saturated, the whole batch is
                    # early (and no exponentials are drawn).
                    return MessagePack(idents, weights, wctx.levels[start:end])
                if not wctx.all_saturated:
                    # Bisect the window's early-position index: most
                    # sites discover "no earlies in my slice" without
                    # touching (or reducing) any array.
                    positions = wctx.early_positions
                    if bisect_left(positions, start) != bisect_left(
                        positions, end
                    ):
                        saturated = wctx.saturated[start:end]
            elif not mask:
                # Warm-up without a shared window context.
                return MessagePack(
                    idents, weights, levels_of_array(weights, self._r)
                )
            else:
                wctx = None
                # Fused kernel: exact levels + saturation lookup +
                # early positions in one pass (floor 0 = every weight).
                levels, saturated, early_positions = (
                    _active_kernels().window_split(
                        weights, self._r, 0.0, self._mask_table()
                    )
                )
                if len(early_positions) == 0:
                    saturated = None  # nothing early: skip the split
            if saturated is not None and not saturated.all():
                if levels is None:
                    levels = wctx.levels[start:end]
                early = ~saturated
                early_idents = idents[early]
                early_weights = weights[early]
                early_levels = levels[early]
                if early.all():
                    return MessagePack(early_idents, early_weights, early_levels)
                regular_idents = idents[saturated]
                regular_weights = weights[saturated]
        if self._batch_rng is None:
            self._batch_rng = BatchRandom(self._rng)
        m = len(regular_weights)
        draws = self._batch_rng.exponentials(m)
        self.exponentials_generated += m
        keys = _np.divide(regular_weights, draws, out=draws)
        return self._pack_above_threshold(
            ()
            if early_idents is None
            else (early_idents, early_weights, early_levels),
            regular_idents,
            regular_weights,
            keys,
        )

    def _pack_above_threshold(
        self, early: tuple, idents: Any, weights: Any, keys: Any
    ) -> Union[MessagePack, tuple]:
        """The pack of the ``early`` columns (``()`` for none) plus the
        regular entries whose key beats the live threshold — ``()``
        when that leaves nothing to send."""
        send = keys > self._threshold
        num_send = _np.count_nonzero(send)
        if num_send == 0:
            return MessagePack(*early) if early else ()
        if num_send != len(keys):
            idents = idents[send]
            weights = weights[send]
            keys = keys[send]
        if not early:
            early = (None, None, None)
        return MessagePack(*early, idents, weights, keys)

    def snapshot_state(self) -> tuple:
        """Fast window-boundary snapshot for the sharded engine.

        Captures exactly the state the site-pass hooks mutate: the two
        RNG streams (scalar + batch), the control view (mask,
        threshold), and the resource counters.  The ``_sat_table``
        cache is deliberately excluded — it is keyed by the mask and
        rebuilds itself on mismatch.
        """
        batch = self._batch_rng
        return (
            self._rng.getstate(),
            # Distinguish "no batch stream yet" (its creation draw must
            # be re-consumed on replay) from an existing stream's state.
            None if batch is None else (batch.snapshot(),),
            self._saturated_mask,
            self._threshold,
            self.items_seen,
            self.exponentials_generated,
            self.bits_generated,
        )

    def restore_state(self, state: tuple) -> None:
        rng_state, batch_state, mask, threshold, seen, exps, bits = state
        self._rng.setstate(rng_state)
        if batch_state is None:
            # The batch stream (if any) was created after the snapshot;
            # dropping it un-consumes its derivation draw (restored
            # into ``_rng`` above), so replay re-derives it identically.
            self._batch_rng = None
        else:
            assert self._batch_rng is not None  # stream predates the snapshot
            self._batch_rng.restore(batch_state[0])
        self._saturated_mask = mask
        self._threshold = threshold
        self.items_seen = seen
        self.exponentials_generated = exps
        self.bits_generated = bits

    def on_control(self, message: Message) -> None:
        """Handle ``LEVEL_SATURATED`` / ``EPOCH_UPDATE`` broadcasts."""
        if message.kind == LEVEL_SATURATED:
            (level,) = message.payload
            self._saturated_mask |= 1 << level
        elif message.kind == EPOCH_UPDATE:
            (threshold,) = message.payload
            if threshold < self._threshold:
                raise ProtocolViolationError(
                    "epoch threshold moved backwards: "
                    f"{self._threshold} -> {threshold}"
                )
            self._threshold = threshold
        else:
            raise ProtocolViolationError(
                f"site {self.site_id} got unexpected control {message.kind!r}"
            )

    def state_words(self) -> int:
        """Persistent state in machine words: bitmask + threshold + r."""
        mask_words = max(1, (self._saturated_mask.bit_length() + 63) // 64)
        return mask_words + 2

    # -- internals ----------------------------------------------------

    def _regular_fast(self, item: Item) -> List[Message]:
        """Generate the key with one full-precision exponential."""
        t = exponential(self._rng)
        self.exponentials_generated += 1
        v = item.weight / t
        if v > self._threshold:
            return [Message(REGULAR, (item.ident, item.weight, v))]
        return []

    def _regular_lazy(self, item: Item) -> List[Message]:
        """Proposition 7 mode: reveal only the bits the comparison needs.

        ``v > u``  iff  ``t < w/u``; with ``u == 0`` every key passes
        and must be materialized.
        """
        lazy = LazyExponential(self._rng)
        self.exponentials_generated += 1
        u = self._threshold
        if u <= 0.0:
            v = item.weight / lazy.value()
            self.bits_generated += lazy.bits_used
            return [Message(REGULAR, (item.ident, item.weight, v))]
        send = lazy.below(item.weight / u)
        if not send:
            self.bits_generated += lazy.bits_used
            return []
        v = item.weight / lazy.value()
        self.bits_generated += lazy.bits_used  # cumulative: includes below()
        if not math.isfinite(v):
            v = item.weight / 1e-300
        return [Message(REGULAR, (item.ident, item.weight, v))]

    @property
    def mean_bits_per_comparison(self) -> float:
        """Average bits revealed per generated exponential (E12 metric)."""
        if self.exponentials_generated == 0:
            return 0.0
        return self.bits_generated / self.exponentials_generated
