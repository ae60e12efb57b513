"""Network substrate: messages, counters, tracing, and the driver."""

from .counters import MessageCounters
from .messages import (
    COUNT_REPORT,
    DOWNSTREAM_KINDS,
    EARLY,
    EPOCH_UPDATE,
    ESTIMATE_BROADCAST,
    LEVEL_SATURATED,
    Message,
    RAW_ITEM,
    REGULAR,
    ROUND_UPDATE,
    SWR_SAMPLE,
    UPSTREAM_KINDS,
)
from ..runtime import BROADCAST, CoordinatorAlgorithm, Network, SiteAlgorithm
from .tracing import MessageTrace, TraceEvent

__all__ = [
    "Message",
    "EARLY",
    "REGULAR",
    "LEVEL_SATURATED",
    "EPOCH_UPDATE",
    "ROUND_UPDATE",
    "SWR_SAMPLE",
    "COUNT_REPORT",
    "ESTIMATE_BROADCAST",
    "RAW_ITEM",
    "UPSTREAM_KINDS",
    "DOWNSTREAM_KINDS",
    "MessageCounters",
    "BROADCAST",
    "Network",
    "SiteAlgorithm",
    "CoordinatorAlgorithm",
    "MessageTrace",
    "TraceEvent",
]
