"""Unit tests for repro.net: messages, counters, channels."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.common import ConfigurationError, ProtocolViolationError
from repro.net import (
    BROADCAST,
    CoordinatorAlgorithm,
    FifoChannel,
    Message,
    MessageCounters,
    Network,
    SiteAlgorithm,
)
from repro.stream import Item, round_robin, unit_stream


class TestMessage:
    def test_equality_and_hash(self):
        a = Message("early", (1, 2.0))
        b = Message("early", (1, 2.0))
        c = Message("regular", (1, 2.0))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_repr_mentions_kind(self):
        assert "early" in repr(Message("early", ()))


class TestMessageCounters:
    def test_upstream_accounting(self):
        counters = MessageCounters()
        counters.record_upstream(Message("early", (1, 2.0)))
        counters.record_upstream(Message("regular", (1, 2.0, 3.0)))
        assert counters.upstream == 2
        assert counters.downstream == 0
        assert counters.total == 2
        assert counters.by_kind["early"] == 1

    def test_broadcast_counts_k_copies(self):
        counters = MessageCounters()
        counters.record_downstream(Message("epoch_update", (4.0,)), copies=8)
        assert counters.downstream == 8
        assert counters.by_kind["epoch_update"] == 8

    def test_words_positive_and_bounded(self):
        counters = MessageCounters()
        counters.record_upstream(Message("regular", (1, 2.0, 3.0)))
        assert counters.words >= 1
        assert counters.max_message_words <= 8  # O(1) words per message

    def test_snapshot_keys(self):
        counters = MessageCounters()
        counters.record_upstream(Message("early", (1, 1.0)))
        snap = counters.snapshot()
        assert snap["total"] == 1
        assert snap["kind:early"] == 1
        assert "words" in snap

    def test_word_cache_matches_fresh_accounting(self):
        # The same message object counted twice (e.g. one broadcast
        # object counted per copy) must cost the same words as two
        # identical fresh objects.
        shared = Message("early", (1, 2.0))
        twice = MessageCounters()
        twice.record_upstream(shared)
        twice.record_upstream(shared)
        fresh = MessageCounters()
        fresh.record_upstream(Message("early", (1, 2.0)))
        fresh.record_upstream(Message("early", (1, 2.0)))
        assert twice.words == fresh.words
        assert twice.max_message_words == fresh.max_message_words


class TestFifoChannel:
    def test_in_order_delivery(self):
        ch = FifoChannel("test")
        for i in range(5):
            ch.send(Message("early", (i,)))
        received = [m.payload[0] for m in ch.drain()]
        assert received == [0, 1, 2, 3, 4]

    def test_empty_receive_none(self):
        assert FifoChannel("t").receive() is None

    def test_reorder_detected(self):
        ch = FifoChannel("t")
        ch.send(Message("early", (0,)))
        ch.send(Message("early", (1,)))
        ch.reorder_for_test()
        with pytest.raises(ProtocolViolationError):
            list(ch.drain())

    def test_len_tracks_queue(self):
        ch = FifoChannel("t")
        ch.send(Message("early", ()))
        assert len(ch) == 1
        ch.receive()
        assert len(ch) == 0


class _EchoSite(SiteAlgorithm):
    """Forwards every item; records controls received."""

    def __init__(self) -> None:
        self.controls: List[Message] = []

    def on_item(self, item: Item) -> List[Message]:
        return [Message("raw_item", (item.ident, item.weight))]

    def on_control(self, message: Message) -> None:
        self.controls.append(message)


class _AckCoordinator(CoordinatorAlgorithm):
    """Acks every 3rd message with a broadcast, every 5th with a unicast."""

    def __init__(self) -> None:
        self.seen: List[Tuple[int, Message]] = []

    def on_message(self, site_id: int, message: Message):
        self.seen.append((site_id, message))
        out = []
        if len(self.seen) % 3 == 0:
            out.append((BROADCAST, Message("round_update", (len(self.seen),))))
        if len(self.seen) % 5 == 0:
            out.append((site_id, Message("round_update", (-1,))))
        return out


class TestNetwork:
    def _build(self, k=3):
        sites = [_EchoSite() for _ in range(k)]
        coord = _AckCoordinator()
        return Network(sites, coord), sites, coord

    def test_global_order_preserved(self):
        net, sites, coord = self._build()
        stream = round_robin(unit_stream(9), 3)
        net.run(stream)
        received_ids = [msg.payload[0] for _, msg in coord.seen]
        assert received_ids == list(range(9))

    def test_broadcast_reaches_every_site_and_counts_k(self):
        net, sites, coord = self._build(k=3)
        net.run(round_robin(unit_stream(3), 3))
        # one broadcast after message 3
        assert all(len(s.controls) >= 1 for s in sites)
        assert net.counters.downstream == 3

    def test_unicast_reaches_only_target(self):
        net, sites, coord = self._build(k=3)
        net.run(round_robin(unit_stream(5), 3))
        # message 5 came from site index 4 % 3 == 1
        unicasts = [c for c in sites[1].controls if c.payload == (-1,)]
        assert len(unicasts) == 1
        assert not any(c.payload == (-1,) for c in sites[0].controls)

    def test_counters_totals(self):
        net, _, _ = self._build(k=3)
        net.run(round_robin(unit_stream(15), 3))
        assert net.counters.upstream == 15
        # 5 broadcasts * 3 + 3 unicasts
        assert net.counters.downstream == 5 * 3 + 3

    def test_checkpoints_fire(self):
        net, _, _ = self._build(k=3)
        fired = []
        net.run(
            round_robin(unit_stream(10), 3),
            checkpoints=[2, 7],
            on_checkpoint=fired.append,
        )
        assert fired == [2, 7]

    def test_on_step_fires_every_item(self):
        net, _, _ = self._build(k=3)
        steps = []
        net.run(round_robin(unit_stream(4), 3), on_step=steps.append)
        assert steps == [1, 2, 3, 4]

    def test_site_count_mismatch_rejected(self):
        net, _, _ = self._build(k=3)
        with pytest.raises(ConfigurationError):
            net.run(round_robin(unit_stream(4), 2))

    def test_bad_destination_rejected(self):
        net, _, _ = self._build(k=3)
        with pytest.raises(ConfigurationError):
            net.deliver_downstream(9, Message("round_update", ()))

    def test_needs_at_least_one_site(self):
        with pytest.raises(ConfigurationError):
            Network([], _AckCoordinator())

    def test_generator_on_item_sees_interleaved_control(self):
        """A generator site must observe controls delivered between its
        own yields — the synchrony the L1 tracker relies on."""

        class GenSite(SiteAlgorithm):
            def __init__(self):
                self.controls_seen_mid_item = 0
                self._got_control = False

            def on_item(self, item):
                self._got_control = False
                yield Message("raw_item", (0, 1.0))
                if self._got_control:
                    self.controls_seen_mid_item += 1
                yield Message("raw_item", (1, 1.0))

            def on_control(self, message):
                self._got_control = True

        class AlwaysAck(CoordinatorAlgorithm):
            def on_message(self, site_id, message):
                return [(BROADCAST, Message("round_update", ()))]

        site = GenSite()
        net = Network([site], AlwaysAck())
        net.step(0, Item(0, 1.0))
        assert site.controls_seen_mid_item == 1
