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
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Tuple

import numpy as _np

from ..common.errors import ProtocolViolationError
from ..common.rng import exponential
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
from .epochs import EpochTracker
from .levels import LevelSetManager, level_of
from .sample_set import TopKeySample

__all__ = ["SworCoordinator"]


class SworCoordinator(CoordinatorAlgorithm):
    """The coordinator of the weighted-SWOR protocol."""

    def __init__(self, config: SworConfig, rng: random.Random) -> None:
        self.config = config
        self._rng = rng
        self._r = config.r
        self.sample_set = TopKeySample(config.sample_size)
        self.levels = LevelSetManager(self._r, config.saturation_size)
        self.epochs = EpochTracker(self._r)
        self.regular_received = 0
        self.regular_accepted = 0
        self.early_received = 0
        self.early_for_saturated = 0

    # -- CoordinatorAlgorithm interface --------------------------------

    def on_message(self, site_id: int, message: Message) -> List[Tuple[int, Message]]:
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
        key = weight / exponential(self._rng)
        return self._early_core(
            Item(ident, weight), level_of(weight, self._r), key
        )

    def _early_core(
        self, item: Item, level: int, key: float
    ) -> List[Tuple[int, Message]]:
        """Algorithm 2 lines 8-17 for one early item with its key
        already generated (shared by the per-message and pack paths)."""
        if self.levels.is_saturated(level):
            # The sender filtered on a stale saturation view (its
            # LEVEL_SATURATED broadcast is still in flight — possible
            # under any engine with delayed control delivery).  The item
            # must not corrupt the released level's set; it competes for
            # the sample directly with a coordinator-generated key,
            # exactly as it would have had it been parked and released.
            self.early_for_saturated += 1
            return self._add_to_sample(item, key)
        released = self.levels.add(item, key, level=level)
        if released is None:
            return []
        responses: List[Tuple[int, Message]] = [
            (BROADCAST, Message(LEVEL_SATURATED, (level,)))
        ]
        for rel_item, rel_key in released:
            responses.extend(self._add_to_sample(rel_item, rel_key))
        return responses

    def _on_regular(self, message: Message) -> List[Tuple[int, Message]]:
        ident, weight, key = message.payload
        self.regular_received += 1
        return self._regular_core(ident, weight, key)

    def _regular_core(
        self, ident: int, weight: float, key: float
    ) -> List[Tuple[int, Message]]:
        if key <= self.sample_set.threshold:
            # Site filtered on a stale (smaller) epoch threshold; the
            # coordinator's check (Algorithm 2 line 19) discards.
            return []
        self.regular_accepted += 1
        return self._add_to_sample(Item(ident, weight), key)

    # -- bulk path: one pack per (site, batch) --------------------------

    def on_message_pack(self, site_id: int, pack: Any) -> List[Tuple[int, Message]]:
        """Columnar Algorithms 2-3 over a whole site batch.

        Early keys are drawn first, in delivery order, with exactly the
        scalar path's RNG consumption — so samples stay bit-identical
        to per-message processing.  The *fast path* then commits the
        pack in bulk: earlies are parked level-by-level with one list
        extend each, and every pack's regulars, however few, take one
        fused ``swor_fold_regulars`` call (threshold re-check plus
        top-``s`` selection over the sample's key column) and one
        :meth:`~repro.core.sample_set.TopKeySample.fold_selected`
        commit.  The fast path is only taken when the pack provably
        emits no broadcast — no early touches a saturated (or
        about-to-saturate) level, and the merged threshold stays inside
        the current epoch bracket; pack processing is then
        indistinguishable from sequential delivery.  Otherwise (a
        logarithmic number of packs per run) the pack is replayed
        message by message, which reproduces the sequential semantics —
        including broadcast timing — exactly.

        One observability stat differs on the fast path:
        ``regular_accepted`` counts the survivors of the
        pack-entry threshold, whereas sequential processing re-checks
        each regular against the threshold *as it evolves* within the
        batch; the sample itself is identical either way (rejected
        candidates can never be among the final top ``s``).  A window
        pack from the columnar engine's window step (see
        :meth:`can_park`) therefore counts the survivors of the
        window-entry threshold.
        """
        ne = pack.num_early
        early_keys: List[float] = []
        levels_list: List[int] = []
        early_items: Any = None
        if ne:
            if not self.config.level_sets_enabled:
                raise ProtocolViolationError(
                    "early message received but level sets are disabled"
                )
            # Identical RNG consumption to ne scalar exponential() draws.
            rand = self._rng.random
            log = math.log
            weights_list = pack.early_weights.tolist()
            for w in weights_list:
                u = rand()
                while u <= 0.0:
                    u = rand()
                early_keys.append(w / -log(u))
            levels_list = pack.early_levels.tolist()
            early_items = pack.early_items
            if early_items is None:
                ids = pack.early_idents.tolist()
                early_items = [
                    Item(ids[i], weights_list[i]) for i in range(ne)
                ]
        fast = True
        grouped: Dict[int, List[int]] = {}
        if ne:
            for i in range(ne):
                grouped.setdefault(levels_list[i], []).append(i)
            for lv, indices in grouped.items():
                if not self.levels.can_absorb(lv, len(indices)):
                    fast = False
                    break
        nr = pack.num_regular
        keys: Any = None
        fold: Any = None
        accepted = 0
        if fast and nr:
            keys = pack.regular_keys
            fold = self._quiet_fold(keys)
            if fold is None:
                fast = False
            else:
                accepted = len(fold[0])
        if not fast:
            return self._replay_pack(pack, early_items, early_keys, levels_list)
        if ne:
            self.early_received += ne
            for lv, indices in grouped.items():
                self.levels.add_many(
                    lv, [(early_items[i], early_keys[i]) for i in indices]
                )
        if nr:
            self.regular_received += nr
            if accepted:
                self.regular_accepted += accepted
                self.sample_set.fold_selected(
                    pack.regular_idents, pack.regular_weights, keys, *fold
                )
                announce = self.epochs.observe_threshold(self.sample_set.threshold)
                if announce is not None:  # pragma: no cover - precluded above
                    return [(BROADCAST, Message(EPOCH_UPDATE, (announce,)))]
        return []

    # -- the columnar window step's pure checks ------------------------

    def can_park(self, early_levels: Any) -> bool:
        """Whether earlies at these levels (a window's early level
        column) all park without saturating a level.  Pure: the
        columnar engine asks before its window pass draws anything
        (:meth:`~repro.core.site.SworSite.prepare_window`), since only
        a ``LEVEL_SATURATED`` changes how many keys a site draws."""
        counts = _np.bincount(early_levels)
        for level in _np.flatnonzero(counts).tolist():
            if not self.levels.can_absorb(level, int(counts[level])):
                return False
        return True

    def folds_quietly(self, keys: Any) -> bool:
        """Whether one fold of these regular keys (``None``: none),
        after earlies that :meth:`can_park` admitted, leaves the epoch
        unchanged — the fast-path test of :meth:`on_message_pack`,
        pure.  The columnar engine then folds the whole window as one
        pack."""
        return keys is None or self._quiet_fold(keys) is not None

    def _quiet_fold(self, keys: Any) -> Any:
        """The fused fold of ``keys`` into ``S`` — the threshold mask,
        the merged cut (the threshold the fold leaves behind), the
        boundary-tie count and the kept-candidate set, in one kernel
        pass — or ``None`` when it would announce a new epoch."""
        sample = self.sample_set
        fold = swor_fold_regulars(
            keys, sample.threshold, sample.keys, sample.sample_size
        )
        if len(fold[0]) and self.epochs.would_announce(fold[2]):
            return None
        return fold

    def snapshot_state(self) -> tuple:
        """Window-boundary snapshot for the sharded engine.

        Captures everything the message handlers can mutate — the
        coordinator RNG position, sample set, level sets, epoch
        tracker, and receipt counters — so a sharded run that degrades
        after a worker fault can restart from its run-start checkpoint.
        """
        return (
            self._rng.getstate(),
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
            rng_state,
            sample_state,
            levels_state,
            epochs_state,
            regular_received,
            regular_accepted,
            early_received,
            early_for_saturated,
        ) = state
        self._rng.setstate(rng_state)
        self.sample_set.restore_state(sample_state)
        self.levels.restore_state(levels_state)
        self.epochs.restore_state(epochs_state)
        self.regular_received = regular_received
        self.regular_accepted = regular_accepted
        self.early_received = early_received
        self.early_for_saturated = early_for_saturated

    def _replay_pack(
        self,
        pack: Any,
        early_items: Any,
        early_keys: List[float],
        levels_list: List[int],
    ) -> List[Tuple[int, Message]]:
        """Sequential pack replay with pre-drawn early keys and
        pre-built early Items — the exact per-message semantics, used
        when a pack would saturate a level or cross an epoch boundary."""
        responses: List[Tuple[int, Message]] = []
        for i in range(pack.num_early):
            self.early_received += 1
            responses.extend(
                self._early_core(early_items[i], levels_list[i], early_keys[i])
            )
        if pack.num_regular:
            ids = pack.regular_idents.tolist()
            ws = pack.regular_weights.tolist()
            keys = pack.regular_keys.tolist()
            for i in range(len(keys)):
                self.regular_received += 1
                responses.extend(self._regular_core(ids[i], ws[i], keys[i]))
        return responses

    # -- Algorithm 3: Add-to-Sample --------------------------------------

    def _add_to_sample(self, item: Item, key: float) -> List[Tuple[int, Message]]:
        """Insert into ``S``; broadcast if the epoch advanced."""
        if key <= self.sample_set.threshold:
            return []
        self.sample_set.add(item, key)
        announce = self.epochs.observe_threshold(self.sample_set.threshold)
        if announce is None:
            return []
        return [(BROADCAST, Message(EPOCH_UPDATE, (announce,)))]

    # -- queries --------------------------------------------------------

    def sample_with_keys(self) -> List[Tuple[Item, float]]:
        """The weighted SWOR at this instant: top-``s`` keys over
        ``S ∪ (∪_j D_j)`` (withheld items use their pre-generated keys)."""
        entries = self.sample_set.entries() + self.levels.pending_entries()
        entries.sort(key=lambda pair: -pair[1])
        return entries[: self.config.sample_size]

    def sample(self) -> List[Item]:
        """Sampled items in decreasing key order."""
        return [item for item, _ in self.sample_with_keys()]

    @property
    def threshold(self) -> float:
        """Current ``u`` (the ``s``-th largest *released* key)."""
        return self.sample_set.threshold
