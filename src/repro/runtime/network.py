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

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

from ..common.errors import ConfigurationError
from ..stream.item import check_weight
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

    The network builds its own
    :class:`~repro.net.counters.MessageCounters`, ``counters``.
    """

    def __init__(
        self, sites: Sequence[SiteAlgorithm], coordinator: CoordinatorAlgorithm
    ) -> None:
        if not sites:
            raise ConfigurationError("need at least one site")
        # Imported here, not at module scope: repro.net re-exports this
        # class, so a module-level import would be circular.
        from ..net.counters import MessageCounters

        self.sites: List[SiteAlgorithm] = list(sites)
        self.coordinator = coordinator
        self.counters = MessageCounters()
        self.items_processed = 0

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def deliver_upstream(
        self, site_id: int, message: "Message"
    ) -> List[Tuple[int, "Message"]]:
        """Deliver one site message to the coordinator, then fan out the
        coordinator's responses synchronously.  Returns the responses
        as ``(dest, message)`` pairs (a wrapper must return them too)."""
        self.counters.record_upstream(message)
        responses = self.coordinator.on_message(site_id, message)
        for dest, response in responses:
            self.deliver_downstream(dest, response)
        return responses

    def deliver_pack(
        self, site_id: int, pack: "MessagePack"
    ) -> List[Tuple[int, "Message"]]:
        """Deliver a whole site batch to the coordinator as one pack.

        Counted as the messages the pack stands for (see
        :meth:`~repro.net.counters.MessageCounters.record_upstream_pack`),
        then handled through the coordinator's bulk hook; responses fan
        out as usual.  When delivery is instrumented
        (:meth:`delivery_instrumented`) the pack is expanded and routed
        message by message instead, so wrappers see every upstream
        message with its exact causal order under any engine.  Returns
        the responses fanned out, in order (for an expanded pack, each
        message's responses concatenated).
        """
        if len(pack) == 0:
            return []
        if self.delivery_instrumented():
            responses = []
            for message in pack.messages():
                responses += self.deliver_upstream(site_id, message)
            return responses
        self.counters.record_upstream_pack(pack)
        responses = self.coordinator.on_message_pack(site_id, pack)
        for dest, response in responses:
            self.deliver_downstream(dest, response)
        return responses

    def delivery_instrumented(self) -> bool:
        """Whether an observer has wrapped the delivery path: any of
        :meth:`deliver_upstream`, :meth:`deliver_downstream` and
        :meth:`deliver_pack` rebound on the instance
        (:class:`~repro.net.tracing.MessageTrace`), overridden in a
        subclass, or patched on the class.  Such an observer wants
        every upstream message in its causal order: packs are expanded
        message by message, the sharded engine runs in-process, and the
        columnar engine keeps its per-site loop (a ``deliver_pack``
        wrapper would otherwise see one window pack)."""
        instance = self.__dict__
        cls = type(self)
        return (
            "deliver_upstream" in instance
            or "deliver_downstream" in instance
            or "deliver_pack" in instance
            or cls.deliver_upstream is not _BASE_DELIVER_UPSTREAM
            or cls.deliver_downstream is not _BASE_DELIVER_DOWNSTREAM
            or cls.deliver_pack is not _BASE_DELIVER_PACK
        )

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
        """Process one arrival at one site (one model round).  A weight
        outside ``(0, MAX_WEIGHT]`` raises
        :class:`~repro.common.errors.InvalidWeightError`
        (:func:`~repro.stream.item.check_weight`), as at columnar
        ingest."""
        check_weight(item.weight)
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

        Every engine refuses a stream whose site count differs from the
        network's before any site runs, and rewinds a run that raises
        to its start (see :meth:`~repro.runtime.base.Engine.run`).
        """
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

    def snapshot_state(self):
        """A checkpoint of the whole network: every site's and the
        coordinator's :meth:`~repro.runtime.interfaces.SiteAlgorithm.snapshot_state`,
        the counters' and ``items_processed`` — what every engine takes
        at run start and restores when the run raises.  Raises when an
        actor's snapshot raises (a default snapshot pickles, and some
        state does not)."""
        return (
            [site.snapshot_state() for site in self.sites],
            self.coordinator.snapshot_state(),
            self.counters.snapshot_state(),
            self.items_processed,
        )

    def restore_state(self, state) -> None:
        """Rewind to a :meth:`snapshot_state`, in place: whatever holds
        a site, the coordinator or the counters keeps seeing their
        state.  The checkpoint stays as it was, to be restored again."""
        sites, coordinator, counters, self.items_processed = state
        for site, site_state in zip(self.sites, sites):
            site.restore_state(site_state)
        self.coordinator.restore_state(coordinator)
        self.counters.restore_state(counters)

    def site_state_words(self) -> List[int]:
        """Per-site persistent state, in words (experiment E12)."""
        return [site.state_words() for site in self.sites]


#: Pristine delivery methods, captured at class-definition time —
#: :meth:`Network.delivery_instrumented` compares against these so
#: *any* instrumentation (instance rebinding, subclass override, or a
#: patch on the class itself) counts.
_BASE_DELIVER_UPSTREAM = Network.deliver_upstream
_BASE_DELIVER_DOWNSTREAM = Network.deliver_downstream
_BASE_DELIVER_PACK = Network.deliver_pack
