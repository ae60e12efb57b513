"""Fault-injection tests: the protocol layer detects model violations.

The paper's model assumes monotone thresholds and saturation-state
agreement between sites and the coordinator.  These tests break each
assumption deliberately and assert the library fails loudly
(ProtocolViolationError) instead of silently producing a biased
sample.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.common import ProtocolViolationError
from repro.core import SworConfig, SworCoordinator, SworSite
from repro.l1.tracker import _L1Site
from repro.net import Message
from repro.net.messages import EARLY, EPOCH_UPDATE, LEVEL_SATURATED
from repro.stream import Item


class TestSiteFaults:
    def _site(self):
        return SworSite(
            0, SworConfig(num_sites=2, sample_size=2), np.random.default_rng(1)
        )

    def test_backwards_epoch_rejected(self):
        site = self._site()
        site.on_control(Message(EPOCH_UPDATE, (16.0,)))
        with pytest.raises(ProtocolViolationError, match="backwards"):
            site.on_control(Message(EPOCH_UPDATE, (2.0,)))

    def test_garbage_control_rejected(self):
        with pytest.raises(ProtocolViolationError):
            self._site().on_control(Message("nonsense", (1,)))


class TestCoordinatorFaults:
    def test_stale_early_for_saturated_level_folded_in(self):
        """A site may still send EARLY for a saturated level while the
        LEVEL_SATURATED broadcast is in flight (delayed control
        delivery, e.g. under the columnar engine).  The coordinator must
        not corrupt level-set state: it generates the key itself and
        folds the item straight into the sample."""
        cfg = SworConfig(num_sites=2, sample_size=1, level_set_factor=0.5)
        coord = SworCoordinator(cfg, np.random.default_rng(2))
        # saturation_size = 0.5 * 2 * 1 = 1: first early item saturates.
        coord.on_message(0, Message(EARLY, (0, 1.0)))
        saturated_before = set(coord.levels.saturated_levels)
        coord.on_message(1, Message(EARLY, (1, 1.0)))
        assert coord.early_for_saturated == 1
        assert coord.levels.saturated_levels == saturated_before
        assert coord.levels.pending_count() == 0  # not re-parked
        # Both items competed for the single slot with independent keys.
        assert {item.ident for item, _ in coord.sample_with_keys()} <= {0, 1}

    def test_stale_early_respects_sample_threshold(self):
        """The folded-in item goes through Add-to-Sample: a key below
        the current threshold is discarded, not force-inserted."""
        cfg = SworConfig(num_sites=2, sample_size=1, level_set_factor=0.5)
        coord = SworCoordinator(cfg, np.random.default_rng(3))
        coord.on_message(0, Message(EARLY, (0, 1.0)))
        before = coord.threshold
        # A stale early item with a vanishing weight (key ~ 1e-9/Exp)
        # loses to the incumbent: discarded, threshold untouched.
        coord.on_message(1, Message(EARLY, (1, 1e-9)))
        assert coord.early_for_saturated == 1
        assert [item.ident for item in coord.sample()] == [0]
        assert coord.threshold == before

    def test_unknown_message_kind_rejected(self):
        cfg = SworConfig(num_sites=2, sample_size=1)
        coord = SworCoordinator(cfg, np.random.default_rng(3))
        with pytest.raises(ProtocolViolationError):
            coord.on_message(0, Message("mystery", ()))


class TestL1Faults:
    def test_l1_site_rejects_decreasing_threshold(self):
        site = _L1Site(duplication=4, gen=np.random.default_rng(4))
        site.on_control(Message(EPOCH_UPDATE, (8.0,)))
        with pytest.raises(ProtocolViolationError, match="decreased"):
            site.on_control(Message(EPOCH_UPDATE, (4.0,)))

    def test_l1_site_rejects_foreign_control(self):
        site = _L1Site(duplication=4, gen=np.random.default_rng(5))
        with pytest.raises(ProtocolViolationError):
            site.on_control(Message(LEVEL_SATURATED, (0,)))

    def test_generator_interruption_is_safe(self):
        """Abandoning a site's message generator mid-item must not
        corrupt site state for the next item (no partial-state leak)."""
        site = _L1Site(duplication=10, gen=np.random.default_rng(6))
        gen = site.on_item(Item(0, 1.0))
        next(gen)  # consume one message, then drop the generator
        gen.close()
        out = list(site.on_item(Item(1, 1.0)))
        assert all(m.kind == "regular" for m in out)
