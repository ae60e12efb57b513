"""The wiring layer: ``k`` sites + a coordinator + message accounting.

:class:`Network` owns the topology and the counters but **not** the
execution strategy — replaying a stream is delegated to a pluggable
:class:`~repro.runtime.base.Engine` (reference by default).  The
delivery primitives (:meth:`Network.deliver_upstream`,
:meth:`Network.deliver_downstream`) are the single choke point every
engine routes messages through, which keeps counting honest and lets
:class:`~repro.net.tracing.MessageTrace` instrument any engine by
wrapping the instance methods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence

from ..common.errors import ConfigurationError
from .interfaces import BROADCAST, CoordinatorAlgorithm, SiteAlgorithm

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.counters import MessageCounters
    from ..net.messages import Message, MessagePack
    from ..stream.item import DistributedStream, Item
    from .base import Engine

__all__ = ["Network"]


class Network:
    """Wires ``k`` site instances and a coordinator, counting messages.

    Parameters
    ----------
    sites:
        One :class:`~repro.runtime.interfaces.SiteAlgorithm` per site.
    coordinator:
        The :class:`~repro.runtime.interfaces.CoordinatorAlgorithm`.
    counters:
        Optional externally-owned counters (a fresh one is created
        otherwise).
    """

    def __init__(
        self,
        sites: Sequence[SiteAlgorithm],
        coordinator: CoordinatorAlgorithm,
        counters: Optional["MessageCounters"] = None,
    ) -> None:
        if not sites:
            raise ConfigurationError("need at least one site")
        if counters is None:
            # Imported here, not at module scope: repro.net re-exports
            # this class, so a module-level import would be circular.
            from ..net.counters import MessageCounters

            counters = MessageCounters()
        self.sites: List[SiteAlgorithm] = list(sites)
        self.coordinator = coordinator
        self.counters = counters
        self.items_processed = 0

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def deliver_upstream(self, site_id: int, message: "Message") -> None:
        """Deliver one site message to the coordinator, then fan out the
        coordinator's responses synchronously."""
        self.counters.record_upstream(message)
        responses = self.coordinator.on_message(site_id, message)
        for dest, response in responses:
            self.deliver_downstream(dest, response)

    def deliver_pack(self, site_id: int, pack: "MessagePack") -> None:
        """Deliver a whole site batch to the coordinator as one pack.

        Counted as the messages the pack stands for (see
        :meth:`~repro.net.counters.MessageCounters.record_upstream_pack`),
        then handled through the coordinator's bulk hook; responses fan
        out as usual.  When the delivery methods have been instrumented
        — rebound on the instance (:class:`~repro.net.tracing.MessageTrace`),
        overridden in a subclass, or patched on the class — the pack is
        expanded and routed message by message instead, so wrappers see
        every upstream message with its exact causal order under any
        engine.
        """
        if len(pack) == 0:
            return
        cls = type(self)
        if (
            "deliver_upstream" in self.__dict__
            or "deliver_downstream" in self.__dict__
            or cls.deliver_upstream is not _BASE_DELIVER_UPSTREAM
            or cls.deliver_downstream is not _BASE_DELIVER_DOWNSTREAM
        ):
            for message in pack.messages():
                self.deliver_upstream(site_id, message)
            return
        self.counters.record_upstream_pack(pack)
        responses = self.coordinator.on_message_pack(site_id, pack)
        for dest, response in responses:
            self.deliver_downstream(dest, response)

    def deliver_downstream(self, dest: int, message: "Message") -> None:
        """Deliver a coordinator response to one site or to all sites."""
        if dest == BROADCAST:
            self.counters.record_downstream(message, copies=self.num_sites)
            for site in self.sites:
                site.on_control(message)
            return
        if not 0 <= dest < self.num_sites:
            raise ConfigurationError(f"destination site {dest} out of range")
        self.counters.record_downstream(message, copies=1)
        self.sites[dest].on_control(message)

    def step(self, site_id: int, item: "Item") -> None:
        """Process one arrival at one site (one model round)."""
        messages = self.sites[site_id].on_item(item)
        for message in messages:
            self.deliver_upstream(site_id, message)
        self.items_processed += 1

    def run(
        self,
        stream: "DistributedStream",
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
        engine: Optional["Engine"] = None,
    ) -> "MessageCounters":
        """Replay a full distributed stream under an execution engine.

        Parameters
        ----------
        stream:
            The distributed stream to replay.
        on_step:
            Optional progress callback invoked with the number of items
            processed so far — after every item under the reference
            engine, after every batch under the columnar engines.
        checkpoints / on_checkpoint:
            When both given, ``on_checkpoint(t)`` fires after processing
            item ``t`` (1-indexed) for each ``t`` in ``checkpoints`` —
            used by the accuracy experiments to query the coordinator at
            fixed times.  Every engine honors checkpoints exactly (the
            columnar engines split batches at checkpoint boundaries).
        engine:
            The :class:`~repro.runtime.base.Engine` to drive execution;
            ``None`` selects the strictly synchronous reference engine,
            which preserves the historical ``Network.run`` semantics
            bit for bit.
        """
        if stream.num_sites != self.num_sites:
            raise ConfigurationError(
                f"stream has {stream.num_sites} sites, network has {self.num_sites}"
            )
        if engine is None:
            from .reference import ReferenceEngine

            engine = ReferenceEngine()
        return engine.run(
            self,
            stream,
            on_step=on_step,
            checkpoints=checkpoints,
            on_checkpoint=on_checkpoint,
        )

    def site_state_words(self) -> List[int]:
        """Per-site persistent state, in words (experiment E12)."""
        return [site.state_words() for site in self.sites]


#: Pristine delivery methods, captured at class-definition time —
#: ``deliver_pack`` compares against these so *any* instrumentation
#: (instance rebinding, subclass override, or a patch on the class
#: itself) routes packs message by message through the wrappers.
_BASE_DELIVER_UPSTREAM = Network.deliver_upstream
_BASE_DELIVER_DOWNSTREAM = Network.deliver_downstream
