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
R003 checks this statically.
"""

from __future__ import annotations

import bisect
import functools
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as _np

from ..common.errors import ProtocolViolationError
from ..common.rng import MIN_EXPONENTIAL, LazyExponential
from ..kernels import window_split
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

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..runtime.columnar import GroupedWindow

__all__ = ["SworSite"]


@functools.lru_cache(maxsize=256)
def saturation_table(mask: int) -> _np.ndarray:
    """The read-only bool table ``table[j] = level j saturated`` of a
    saturated-level bitmask, spanning ``max(64, mask.bit_length())``
    levels — every set bit, so levels beyond the table are unsaturated
    (the form the ``window_split`` kernel wants).

    A pure function of the mask, cached and shared by every site: the
    mask changes only on a ``LEVEL_SATURATED`` broadcast, which every
    site of a network (and every same-config network) receives."""
    size = max(64, mask.bit_length())
    table = _np.fromiter(
        ((mask >> j) & 1 for j in range(size)), dtype=_np.bool_, count=size
    )
    table.flags.writeable = False
    return table


class _WindowPrep:
    """The window pass's result, built by :meth:`SworSite.prepare_window`
    over a window's runs from one run on.

    The pass drew the first ``count`` of the runs it was given;
    ``saturates`` says the last of them holds the first early that does
    not park (nothing past it was drawn).  ``bounds`` / ``early_bounds``
    (lists of ``count + 1``) are each drawn run's bounds into the
    window's columns from the first run on and into their early
    arrivals.  ``regular_keys`` are the drawn regulars' keys, drawn on
    the state at the pass, whose threshold is ``threshold``, and
    ``pack`` is every drawn run's output as one pack: every early
    arrival, then every regular one whose key beats that threshold, each
    half in window order (an empty pack when nothing is sent).

    :meth:`stretch` cuts the pack of any range of drawn runs from
    ``pack`` and re-filters its regulars at ``site``'s live threshold,
    which an ``EPOCH_UPDATE`` delivered since the pass has raised
    (every SWOR control is a broadcast, so any site's threshold is
    every site's).
    """

    __slots__ = (
        "site",
        "pack",
        "regular_keys",
        "threshold",
        "count",
        "saturates",
        "bounds",
        "early_bounds",
        "_candidates",
        "_run_bounds",
    )

    def __init__(
        self,
        site: "SworSite",
        idents: _np.ndarray,
        weights: _np.ndarray,
        early: _np.ndarray,
        early_levels: _np.ndarray,
        regular: Any,
        regular_keys: _np.ndarray,
        saturates: bool,
        bounds: List[int],
        early_bounds: List[int],
    ) -> None:
        """``idents`` / ``weights`` are the window's columns from the
        first run on, ``early`` the drawn earlies' positions in them and
        ``early_levels`` their levels, ``regular`` the drawn regulars'
        positions (``None`` when every arrival is regular)."""
        self.site = site
        self.regular_keys = regular_keys
        self.threshold = site._threshold
        self.count = len(bounds) - 1
        self.saturates = saturates
        self.bounds = bounds
        self.early_bounds = early_bounds
        self._run_bounds: Optional[Tuple[List[int], List[int]]] = None
        m = bounds[-1]
        if len(early) == m:
            columns: tuple = (idents[:m], weights[:m], early_levels)
        elif len(early):
            columns = (idents[early], weights[early], early_levels)
        else:
            columns = (None, None, None)
        candidates = self._candidates = _np.flatnonzero(
            regular_keys > self.threshold
        )
        if len(candidates) == 0:
            self.pack = MessagePack(*columns)
            return
        positions = candidates if regular is None else regular[candidates]
        self.pack = MessagePack(
            *columns,
            idents[positions],
            weights[positions],
            regular_keys[candidates],
        )

    def _bounds(self) -> Tuple[List[int], List[int]]:
        """Each drawn run's bounds into the window pack's early and
        regular columns (computed only when a range is cut from it)."""
        if self._run_bounds is None:
            regular_bounds = [
                b - e for b, e in zip(self.bounds, self.early_bounds)
            ]
            self._run_bounds = (
                self.early_bounds,
                _np.searchsorted(self._candidates, regular_bounds).tolist(),
            )
        return self._run_bounds

    def stretch(self, a: int, b: int) -> MessagePack:
        """The pack of drawn runs ``[a, b)``: their early entries, then
        their regular entries whose key beats the live threshold — what
        their :meth:`SworSite.on_columns` calls would send, concatenated
        by kind, when no control lands between them (a run of one
        arrival sends what its :meth:`SworSite.on_item` would)."""
        pack = self.pack
        live = self.site._threshold
        if a == 0 and b == self.count and live <= self.threshold:
            return pack
        early_bounds, regular_bounds = self._bounds()
        e0, e1 = early_bounds[a], early_bounds[b]
        c0, c1 = regular_bounds[a], regular_bounds[b]
        early: tuple = (None, None, None)
        if e1 > e0:
            early = (
                pack.early_idents[e0:e1],
                pack.early_weights[e0:e1],
                pack.early_levels[e0:e1],
            )
        if c1 > c0:
            idents = pack.regular_idents[c0:c1]
            weights = pack.regular_weights[c0:c1]
            keys = pack.regular_keys[c0:c1]
            if live > self.threshold:
                send = keys > live
                idents, weights, keys = idents[send], weights[send], keys[send]
            if len(keys):
                return MessagePack(*early, idents, weights, keys)
        return MessagePack(*early)

    def cut(self, a: int, b: int, position: int) -> int:
        """The drawn run that holds regular ``position`` of
        ``stretch(a, b)``'s pack, at the same live threshold."""
        _, regular_bounds = self._bounds()
        c0 = regular_bounds[a]
        live = self.site._threshold
        if live > self.threshold:
            keys = self.pack.regular_keys[c0 : regular_bounds[b]]
            position = int(_np.flatnonzero(keys > live)[position])
        return bisect.bisect_right(regular_bounds, c0 + position) - 1

    def run_packs(self, runs: list) -> Iterator[Tuple[int, MessagePack]]:
        """Yield ``(site_id, pack)`` for each drawn run that sends, in
        run order — its :meth:`stretch` alone.  ``runs`` are the runs
        the pass was given."""
        early_bounds, regular_bounds = self._bounds()
        senders = _np.flatnonzero(
            _np.diff(early_bounds) + _np.diff(regular_bounds)
        ).tolist()
        for j in senders:
            yield runs[j][0], self.stretch(j, j + 1)


class SworSite(SiteAlgorithm):
    """One site of the weighted-SWOR protocol.

    Parameters
    ----------
    site_id:
        This site's index in ``0..k-1``.
    config:
        Shared protocol parameters.
    gen:
        The site's one generator (independent across sites): its
        scalar and its column draws alike.
    """

    def __init__(
        self, site_id: int, config: SworConfig, gen: _np.random.Generator
    ) -> None:
        self.site_id = site_id
        self.config = config
        self._gen = gen
        self._r = config.r
        # Bitmask of saturated levels (level j -> bit j): O(1) words for
        # any realistic W since levels top out at log_r(W).
        self._saturated_mask = 0
        self._threshold = 0.0  # u_i, last announced epoch floor r^j
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
        self,
        window: "GroupedWindow",
        runs: Optional[list] = None,
        can_park: Optional[Callable[[_np.ndarray], Optional[int]]] = None,
    ) -> Optional[_WindowPrep]:
        """The window pass of the columnar engines: the regular keys of
        a window's runs from one run on, drawn on the current state.

        ``window`` is a grouped window
        (:class:`~repro.runtime.columnar.GroupedWindow`: the window's
        site-sorted columns and its memo of level splits) and ``runs``
        its ``(site_id, site, start, end)`` runs from some run to the
        window's end, in ascending site order, each ``site`` one of this
        site's peers.  Levels and the saturation lookup are pure
        functions of the weights, ``r`` and the mask, so one split of
        the window from the first run on (:meth:`_window_split`) serves
        every run; every SWOR control is a broadcast, so every site
        holds this site's mask and threshold.

        ``can_park``, the coordinator's pure check of the split's early
        levels, gives the first early that does not park — it saturates
        a level — before anything is drawn (only a ``LEVEL_SATURATED``
        changes how many keys a run draws): the pass then draws the runs
        up to and including that early's run, and nothing past it.
        Without the check it draws every run.

        Each drawn run books its arrivals in ``items_seen`` and draws
        its regulars from its own site's generator into its slice of
        one column — the variates its :meth:`on_columns`, or for a
        single arrival its :meth:`on_item`, would draw, since a slice
        fill equals that many scalar draws.  Then one clamp and one
        division cover the drawn runs.

        The pass does not run without ``runs``, with level sets disabled
        and in ``count_bits`` mode: the result is then ``None``.
        """
        if (
            runs is None
            or not self.config.level_sets_enabled
            or self.config.count_bits
        ):
            return None
        base = runs[0][2]
        levels, saturated, early = self._window_split(window, base)
        m = len(levels)
        bounds = [run[2] - base for run in runs]
        bounds.append(m)
        early_levels = levels if len(early) == m else levels[early]
        saturates = False
        if can_park is not None and len(early):
            refused = can_park(early_levels)
            if refused is not None:
                saturates = True
                del bounds[bisect.bisect_right(bounds, int(early[refused])) + 1 :]
                m = bounds[-1]
        early_bounds = _np.searchsorted(early, bounds).tolist()
        ne = early_bounds[-1]
        if len(early) == 0:
            regular = None
        elif ne == m:
            regular = early[:0]
        else:
            regular = _np.flatnonzero(saturated[:m])
        draws = _np.empty(m - ne)
        off = 0
        for (_, site, start, end), e0, e1 in zip(
            runs, early_bounds, early_bounds[1:]
        ):
            n = end - start
            site.items_seen += n
            count = n - (e1 - e0)
            if not count:
                continue
            site._gen.standard_exponential(out=draws[off : off + count])
            site.exponentials_generated += count
            off += count
        _np.maximum(draws, MIN_EXPONENTIAL, out=draws)
        weights = window.weights[base:]
        keys = _np.divide(
            weights if regular is None else weights[regular], draws, out=draws
        )
        return _WindowPrep(
            self,
            window.idents[base:],
            weights,
            early[:ne],
            early_levels[:ne],
            regular,
            keys,
            saturates,
            bounds,
            early_bounds,
        )

    def _window_split(self, window: "GroupedWindow", start: int) -> tuple:
        """:meth:`_split` of the window's weights from position
        ``start`` on, read from the window's memo: computed once per
        ``(start, r, mask)`` — the split's only inputs besides the
        weights — and shared by every same-config site and network the
        window is delivered to, which only read it."""
        key = (start, self._r, self._saturated_mask)
        split = window.splits.get(key)
        if split is None:
            split = window.splits[key] = self._split(window.weights[start:])
        return split

    def _split(self, weights: _np.ndarray) -> tuple:
        """``(levels, saturated, early_positions)`` of a weight column
        under this site's mask (``saturated`` is ``None`` in warm-up,
        when the mask is 0 and every arrival is early)."""
        mask = self._saturated_mask
        if mask == 0:
            levels = levels_of_array(weights, self._r)
            return levels, None, _np.arange(len(weights))
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
        return window_split(weights, self._r, heavy_floor, saturation_table(mask))

    def on_columns(
        self, idents: _np.ndarray, weights: _np.ndarray
    ) -> Union[MessagePack, List[Message], tuple]:
        """Vectorized Algorithm 1 over a batch of arrivals.

        One numpy pass replaces the per-item interpreter dispatch: the
        whole batch's levels are computed at once, the saturation
        bitmask is applied as a table lookup, and all regular keys come
        from one exponential draw of the site's generator (the
        variates the per-item path would draw, in order) filtered
        against the epoch threshold.  The result is a single
        :class:`~repro.net.messages.MessagePack` of parallel arrays —
        no ``Item`` and no per-message ``Message`` objects (an empty
        tuple when the batch sends nothing).

        Takes the scalar ``on_item`` path (returning plain messages)
        for single-item batches, which keeps batch size 1 bit-identical
        to the reference engine, and in ``count_bits`` mode, whose
        bit-by-bit generation is inherently sequential.
        """
        n = len(weights)
        if n <= 1 or self.config.count_bits:
            return SiteAlgorithm.on_columns(self, idents, weights)
        self.items_seen += n
        early: tuple = ()
        regular_idents, regular_weights = idents, weights
        if self.config.level_sets_enabled:
            levels, saturated, early_positions = self._split(weights)
            if len(early_positions) == n:
                # Everything early (warm-up included): no exponentials.
                return MessagePack(idents, weights, levels)
            if len(early_positions):
                early = (
                    idents[early_positions],
                    weights[early_positions],
                    levels[early_positions],
                )
                regular_idents = idents[saturated]
                regular_weights = weights[saturated]
        m = len(regular_weights)
        draws = self._gen.standard_exponential(m)
        _np.maximum(draws, MIN_EXPONENTIAL, out=draws)
        self.exponentials_generated += m
        keys = _np.divide(regular_weights, draws, out=draws)
        return self._pack_above_threshold(
            early, regular_idents, regular_weights, keys
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
        """Value snapshot of the site, as every engine takes one in its
        run-start checkpoint, and the sharded engine before every window
        and at run end.

        Captures exactly the state the site-pass hooks mutate: the
        generator's state (four 64-bit words), the control view (mask,
        threshold), and the resource counters — O(1) words.
        """
        return (
            self._gen.bit_generator.state,
            self._saturated_mask,
            self._threshold,
            self.items_seen,
            self.exponentials_generated,
            self.bits_generated,
        )

    def restore_state(self, state: tuple) -> None:
        """Rewind to a snapshot of this site or of a copy of it."""
        gen_state, mask, threshold, seen, exps, bits = state
        self._gen.bit_generator.state = gen_state
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
        t = max(self._gen.standard_exponential(), MIN_EXPONENTIAL)
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
        lazy = LazyExponential(self._gen.bit_generator.random_raw())
        self.exponentials_generated += 1
        u = self._threshold
        if u > 0.0 and not lazy.below(item.weight / u):
            self.bits_generated += lazy.bits_used
            return []
        v = item.weight / max(lazy.value(), MIN_EXPONENTIAL)
        self.bits_generated += lazy.bits_used  # cumulative: includes below()
        return [Message(REGULAR, (item.ident, item.weight, v))]

    @property
    def mean_bits_per_comparison(self) -> float:
        """Average bits revealed per generated exponential (E12 metric)."""
        if self.exponentials_generated == 0:
            return 0.0
        return self.bits_generated / self.exponentials_generated
