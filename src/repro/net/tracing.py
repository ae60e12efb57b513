"""Message tracing — observability for protocol debugging.

Wraps a :class:`~repro.runtime.Network`'s counters with an
event log that records every message in causal order, so tests (and
humans) can assert *sequencing* properties the counters cannot see:
e.g. that a ``LEVEL_SATURATED`` broadcast happens exactly once per
level and only after its ``4rs``-th early message, or that epoch
announcements are strictly increasing.

Usage::

    trace = MessageTrace.attach(protocol.network)
    protocol.run(stream)
    trace.events               # [TraceEvent, ...] in causal order
    trace.kinds()              # Counter of kinds
"""

from __future__ import annotations

from collections import Counter
from typing import List, NamedTuple, Optional, Tuple

from ..runtime import Network
from .messages import Message

__all__ = ["TraceEvent", "MessageTrace"]


class TraceEvent(NamedTuple):
    """One recorded message."""

    seq: int            # causal position
    direction: str      # "up" or "down"
    endpoint: int       # site id for "up"; destination (or -1) for "down"
    kind: str
    payload: Tuple


class MessageTrace:
    """An event log attached to a live network.

    Attach *before* running the stream; detaching is unnecessary (the
    wrapper delegates everything and keeps no protocol state).
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    @classmethod
    def attach(cls, network: Network) -> "MessageTrace":
        """Instrument ``network`` in place and return the trace."""
        trace = cls()
        original_up = network.deliver_upstream
        original_down = network.deliver_downstream

        def traced_up(site_id: int, message: Message) -> List[Tuple[int, Message]]:
            trace.events.append(
                TraceEvent(
                    len(trace.events), "up", site_id, message.kind, message.payload
                )
            )
            return original_up(site_id, message)

        def traced_down(dest: int, message: Message) -> None:
            trace.events.append(
                TraceEvent(
                    len(trace.events), "down", dest, message.kind, message.payload
                )
            )
            original_down(dest, message)

        network.deliver_upstream = traced_up  # type: ignore[method-assign]
        network.deliver_downstream = traced_down  # type: ignore[method-assign]
        return trace

    # -- queries --------------------------------------------------------

    def kinds(self) -> Counter:
        """Message counts by kind (one entry per broadcast, not per copy)."""
        return Counter(e.kind for e in self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in causal order."""
        return [e for e in self.events if e.kind == kind]

    def first_index(self, kind: str) -> Optional[int]:
        """Causal position of the first event of ``kind`` (None if absent)."""
        for event in self.events:
            if event.kind == kind:
                return event.seq
        return None

    def payload_series(self, kind: str) -> List[Tuple]:
        """Payloads of a kind in causal order (e.g. epoch thresholds)."""
        return [e.payload for e in self.events if e.kind == kind]
