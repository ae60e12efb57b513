"""Coordinator algorithm for distributed weighted SWOR (Algorithms 2–3).

Responsibilities:

* park early items in level sets, generating their keys on arrival;
* on saturation, release the whole level into the sample set and
  broadcast ``LEVEL_SATURATED`` (``k`` messages);
* fold regular items into the sample set when their key beats ``u``;
* after every sample change, check whether ``u`` crossed into a new
  ``[r^j, r^{j+1})`` bracket and broadcast ``EPOCH_UPDATE`` if so
  (Algorithm 3 lines 5–8);
* answer queries with the top-``s`` keys over ``S ∪ (∪_j D_j)``
  (Algorithm 2 line 22) — valid at *every* time step, per Definition 3.

The per-message path offers a released level to ``S`` one entry at a
time; the pack path folds it, and a pack's regulars, in epoch segments
— bit-identical, with ``Item`` objects only for entries that enter
``S`` or answer a query.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as _np

from ..common.errors import ProtocolViolationError
from ..common.rng import MIN_EXPONENTIAL
from ..kernels import swor_fold_regulars
from ..net.messages import (
    EARLY,
    EPOCH_UPDATE,
    LEVEL_SATURATED,
    Message,
    REGULAR,
)
from ..runtime import BROADCAST, CoordinatorAlgorithm
from ..stream.item import Item
from .config import SworConfig
from .epochs import EpochTracker, first_announce, fold_in_epoch_segments
from .levels import LevelSetManager, level_of
from .sample_set import TopKeySample

__all__ = ["SworCoordinator"]

#: Packs of at most this many earlies walk them even when none
#: saturates: the walk costs about 1.3 µs per early, a grouping 45 µs.
_WALK_MAX = 32


class SworCoordinator(CoordinatorAlgorithm):
    """The coordinator of the weighted-SWOR protocol.  Its one
    generator ``gen`` draws the early keys."""

    def __init__(self, config: SworConfig, gen: _np.random.Generator) -> None:
        self.config = config
        self._gen = gen
        self._r = config.r
        self.sample_set = TopKeySample(config.sample_size)
        self.levels = LevelSetManager(self._r, config.saturation_size)
        self.epochs = EpochTracker(self._r)
        self.regular_received = 0
        self.regular_accepted = 0
        self.early_received = 0
        self.early_for_saturated = 0
        # folds_quietly's memo for the delivery that follows it: (the
        # stretch pack, S's offer count at the check, the fused fold).
        self._quiet: Optional[Tuple[Any, int, Any]] = None

    # -- CoordinatorAlgorithm interface --------------------------------

    def on_message(self, site_id: int, message: Message) -> List[Tuple[int, Message]]:
        self._quiet = None
        if message.kind == EARLY:
            return self._on_early(message)
        if message.kind == REGULAR:
            return self._on_regular(message)
        raise ProtocolViolationError(
            f"coordinator got unexpected message kind {message.kind!r}"
        )

    def state_words(self) -> int:
        """Sample set + withheld top keys, in words (O(s) claim).

        The space-optimized variant of Proposition 6 stores only the
        top-``s`` withheld keys; we store all withheld entries for query
        simplicity but report the optimized footprint, which tests
        verify is what the optimized variant would keep.
        """
        sample_words = 3 * len(self.sample_set)
        withheld = min(self.levels.pending_count(), self.config.sample_size)
        counter_words = max(1, len(self.levels.saturated_levels))
        return sample_words + 3 * withheld + counter_words

    # -- message handlers ----------------------------------------------

    def _on_early(self, message: Message) -> List[Tuple[int, Message]]:
        self.early_received += 1
        if not self.config.level_sets_enabled:
            raise ProtocolViolationError(
                "early message received but level sets are disabled"
            )
        ident, weight = message.payload
        key = weight / max(self._gen.standard_exponential(), MIN_EXPONENTIAL)
        return self._early_core(ident, weight, level_of(weight, self._r), key)

    def _early_core(
        self, ident: Any, weight: float, level: int, key: float, fold: bool = False
    ) -> List[Tuple[int, Message]]:
        """Algorithm 2 lines 8-17 for one early item with its key
        already generated.  A saturating level's entries go to ``S`` one
        by one, or, on the pack path (``fold``), in epoch segments."""
        if self.levels.is_saturated(level):
            # The sender filtered on a stale saturation view (its
            # LEVEL_SATURATED broadcast is still in flight — possible
            # under any engine with delayed control delivery).  The item
            # must not corrupt the released level's set; it competes for
            # the sample directly with a coordinator-generated key,
            # exactly as it would have had it been parked and released.
            self.early_for_saturated += 1
            return self._add_to_sample(ident, weight, key)
        released = self.levels.add(ident, weight, key, level)
        if released is None:
            return []
        responses = [(BROADCAST, Message(LEVEL_SATURATED, (level,)))]
        if fold:
            return responses + self._fold(*released)[0]
        for entry in zip(*released):
            responses += self._add_to_sample(*entry)
        return responses

    def _fold(
        self, idents: Any, weights: Any, keys: Any
    ) -> Tuple[List[Tuple[int, Message]], int]:
        """:func:`~repro.core.epochs.fold_in_epoch_segments` of columns
        into ``S``: its broadcasts, and its survivor count."""
        announcements, survivors = fold_in_epoch_segments(
            self.sample_set,
            self.epochs,
            _np.asarray(idents, dtype=_np.int64),
            _np.asarray(weights, dtype=_np.float64),
            _np.asarray(keys, dtype=_np.float64),
        )
        return [
            (BROADCAST, Message(EPOCH_UPDATE, (floor,))) for _, floor in announcements
        ], survivors

    def _on_regular(self, message: Message) -> List[Tuple[int, Message]]:
        ident, weight, key = message.payload
        self.regular_received += 1
        if key <= self.sample_set.threshold:
            # Site filtered on a stale (smaller) epoch threshold; the
            # coordinator's check (Algorithm 2 line 19) discards.
            return []
        self.regular_accepted += 1
        return self._add_to_sample(ident, weight, key)

    # -- bulk path: one pack per (site, batch) --------------------------

    def on_message_pack(self, site_id: int, pack: Any) -> List[Tuple[int, Message]]:
        """Columnar Algorithms 2-3 over a whole site batch, bit-identical
        to delivering its messages one by one.

        Early keys are drawn first, in delivery order, in one draw of
        the generator (the variates ``ne`` scalar draws give).  If no
        early saturates a level
        (:meth:`LevelSetManager.first_refused` is ``None``), each level
        parks its earlies with one extend per column; else, and in small
        packs, the earlies are walked in order as on the scalar path,
        but a released level folds in epoch segments
        (:func:`~repro.core.epochs.fold_in_epoch_segments`).
        The regulars fold in epoch segments too (a quiet pack is one).
        A stretch pack :meth:`folds_quietly` just found quiet, delivered
        while ``S`` is unchanged, skips both checks: :meth:`can_park`
        found its earlies all park, and its regulars take the fold
        :meth:`folds_quietly` computed.

        ``regular_accepted`` counts the survivors of each segment's
        entry threshold (for a window pack, the window-entry threshold),
        not of the threshold as it evolves message by message; rejected
        candidates never enter the top ``s``, so the sample is the same.
        """
        quiet, self._quiet = self._quiet, None
        if quiet and (quiet[0] is not pack or quiet[1] != self.sample_set.offers):
            quiet = None
        responses: List[Tuple[int, Message]] = []
        ne = pack.num_early
        if ne:
            if not self.config.level_sets_enabled:
                raise ProtocolViolationError(
                    "early message received but level sets are disabled"
                )
            draws = self._gen.standard_exponential(ne)
            _np.maximum(draws, MIN_EXPONENTIAL, out=draws)
            keys = _np.divide(pack.early_weights, draws, out=draws)
            self.early_received += ne
            levels = pack.early_levels
            if ne > _WALK_MAX and (
                quiet or self.levels.first_refused(levels) is None
            ):
                self.levels.park(levels, pack.early_idents, pack.early_weights, keys)
            else:
                for ident, weight, level, key in zip(
                    pack.early_idents.tolist(),
                    pack.early_weights.tolist(),
                    levels.tolist(),
                    keys.tolist(),
                ):
                    responses += self._early_core(ident, weight, level, key, True)
        if pack.num_regular:
            self.regular_received += pack.num_regular
            columns = (pack.regular_idents, pack.regular_weights, pack.regular_keys)
            if quiet:
                # The fold folds_quietly computed against this very S.
                self.sample_set.fold_selected(*columns, *quiet[2])
                self.regular_accepted += len(quiet[2][0])
            else:
                controls, survivors = self._fold(*columns)
                self.regular_accepted += survivors
                responses += controls
        return responses

    # -- the columnar window step's pure checks ------------------------

    def can_park(self, early_levels: Any) -> Optional[int]:
        """The position in ``early_levels`` (the early level column of a
        window's runs, in delivery order) of the first early that does
        not park — it saturates its level, or its level is saturated
        already — or ``None`` when every early parks.  Pure: the
        columnar engine asks before its window pass draws anything
        (:meth:`~repro.core.site.SworSite.prepare_window`), since only
        a ``LEVEL_SATURATED`` changes how many keys a site draws."""
        return self.levels.first_refused(early_levels)

    def folds_quietly(self, pack: Any) -> Optional[int]:
        """The position in ``pack``'s regular column of the first
        regular whose in-order fold announces an epoch
        (:func:`~repro.core.epochs.first_announce`, where the first
        segment of the epoch-segmented fold ends), or ``None`` when the
        pack folds without an announce — so the columnar engine can
        fold a stretch of runs whose earlies :meth:`can_park` found all
        park as one pack.  Pure but for a memo of a quiet pack and its
        regulars' fused fold (threshold mask, merged cut, boundary-tie
        count and kept set, in one kernel pass), which
        :meth:`on_message_pack` reuses when the next delivery is that
        pack and ``S`` is unchanged."""
        keys = pack.regular_keys
        sample = self.sample_set
        fold = None
        if keys is not None:
            fold = swor_fold_regulars(
                keys, sample.threshold, sample.keys, sample.sample_size
            )
            if len(fold[0]) and self.epochs.would_announce(fold[2]):
                return first_announce(sample, self.epochs, keys)
        self._quiet = (pack, sample.offers, fold)
        return None

    def snapshot_state(self) -> tuple:
        """Value snapshot for every engine's run-start checkpoint.

        Captures everything the message handlers can mutate — the
        generator's state, sample set, level sets, epoch
        tracker, and receipt counters — so a run that raises rewinds
        to its start, and a sharded run that degrades after a worker
        fault restarts from it.
        """
        return (
            self._gen.bit_generator.state,
            self.sample_set.snapshot_state(),
            self.levels.snapshot_state(),
            self.epochs.snapshot_state(),
            self.regular_received,
            self.regular_accepted,
            self.early_received,
            self.early_for_saturated,
        )

    def restore_state(self, state: tuple) -> None:
        (
            gen_state,
            sample_state,
            levels_state,
            epochs_state,
            regular_received,
            regular_accepted,
            early_received,
            early_for_saturated,
        ) = state
        self._gen.bit_generator.state = gen_state
        self.sample_set.restore_state(sample_state)
        self.levels.restore_state(levels_state)
        self.epochs.restore_state(epochs_state)
        self.regular_received = regular_received
        self.regular_accepted = regular_accepted
        self.early_received = early_received
        self.early_for_saturated = early_for_saturated
        self._quiet = None

    # -- Algorithm 3: Add-to-Sample --------------------------------------

    def _add_to_sample(
        self, ident: Any, weight: float, key: float
    ) -> List[Tuple[int, Message]]:
        """Insert into ``S``; broadcast if the epoch advanced."""
        if key <= self.sample_set.threshold:
            return []
        self.sample_set.add(Item(ident, weight), key)
        announce = self.epochs.observe_threshold(self.sample_set.threshold)
        if announce is None:
            return []
        return [(BROADCAST, Message(EPOCH_UPDATE, (announce,)))]

    # -- queries --------------------------------------------------------

    def sample_with_keys(self) -> List[Tuple[Item, float]]:
        """The weighted SWOR at this instant: top-``s`` keys over
        ``S ∪ (∪_j D_j)`` (withheld items use their pre-generated keys).
        One stable sort by decreasing key of ``S``'s sorted view, then
        the pending keys in bucket order; ``Item``s are built only for
        the pending entries it selects."""
        released = self.sample_set.entries()
        idents, weights, keys = self.levels.pending_columns()
        n = len(released)
        ranked = _np.array([key for _, key in released] + keys)
        top = _np.argsort(-ranked, kind="stable")[: self.config.sample_size]
        return [
            released[i] if i < n else (Item(idents[i - n], weights[i - n]), keys[i - n])
            for i in top.tolist()
        ]

    def sample(self) -> List[Item]:
        """Sampled items in decreasing key order."""
        return [item for item, _ in self.sample_with_keys()]

    @property
    def threshold(self) -> float:
        """Current ``u`` (the ``s``-th largest *released* key)."""
        return self.sample_set.threshold
