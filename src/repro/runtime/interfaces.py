"""Protocol interfaces shared by every runtime engine.

A distributed protocol is a pair of small state machines: one
:class:`SiteAlgorithm` per site and one :class:`CoordinatorAlgorithm`.
Engines (see :mod:`repro.runtime.base`) decide *when* each half runs and
*when* messages move; the interfaces themselves are engine-agnostic.

Sites expose two granularities:

* :meth:`SiteAlgorithm.on_item` — one arrival, the paper's round model;
* :meth:`SiteAlgorithm.on_columns` — a *batch* of arrivals as parallel
  ident/weight columns, used by the columnar data plane.  The default
  implementation just loops ``on_item``; protocol sites override it
  with a vectorized bulk path (e.g.
  :meth:`repro.core.site.SworSite.on_columns` draws all of a batch's
  exponentials in one numpy call and returns one message pack).

This module deliberately imports nothing from :mod:`repro.net` so that
``repro.runtime`` and ``repro.net`` can re-export each other's names
without an import cycle (messages/counters only appear in annotations).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Tuple

from ..stream.item import Item

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.messages import Message, MessagePack

__all__ = ["BROADCAST", "SiteAlgorithm", "CoordinatorAlgorithm"]

#: Destination constant: deliver to every site (costs ``k`` messages).
BROADCAST = -1


class SiteAlgorithm(ABC):
    """Per-site half of a distributed protocol."""

    #: Whether this site may be shipped to (and snapshotted inside) a
    #: worker process by the multiprocess sharded engine.  Requires the
    #: instance to survive a ``pickle`` round trip with full state
    #: fidelity — including its RNG streams, so a restored copy draws
    #: the same variates (``random.Random``, ``BatchRandom``, and numpy
    #: ``Generator`` all qualify).  Sites holding unpicklable state
    #: (open files, sockets, lambdas) or state whose pickled copy would
    #: diverge should set this ``False``; the sharded engine then falls
    #: back to its in-process columnar path instead of guessing.
    shardable: bool = True

    @abstractmethod
    def on_item(self, item: Item) -> List["Message"]:
        """Observe one local arrival; return upstream messages (maybe [])."""

    def on_columns(self, idents, weights, prep=None):
        """Observe a batch of local arrivals given as parallel columns.

        Bulk hook used by the columnar data plane: ``idents`` and
        ``weights`` are aligned numpy arrays for this site's share of a
        batch window, and ``prep`` optionally carries the engine's
        once-per-window precomputation as a ``(context, start, end)``
        triple (built by the optional site hook ``prepare_window``;
        sites that don't share window state ignore it).  Returns either
        a :class:`~repro.net.messages.MessagePack` (vectorized sites) or
        an iterable of :class:`~repro.net.messages.Message`.

        This default delegates to :meth:`on_item` per arrival,
        preserving each arrival's message order; it is also every
        vectorized site's scalar path.  A single arrival returns
        ``on_item``'s result *unmaterialized* (it may be a lazy
        iterator, as for the L1 site, whose messages then interleave
        with the broadcasts they trigger), so a batch size of one
        reproduces the reference engine exactly.
        """
        if len(weights) == 1:
            return self.on_item(Item(int(idents[0]), float(weights[0])))
        out: List["Message"] = []
        for ident, weight in zip(idents.tolist(), weights.tolist()):
            out.extend(self.on_item(Item(ident, weight)))
        return out

    @abstractmethod
    def on_control(self, message: "Message") -> None:
        """Receive a downstream control message from the coordinator."""

    def snapshot_state(self):
        """Return a cheap opaque snapshot of ALL mutable site state.

        The sharded engine snapshots every site at each window boundary
        so a mid-window coordinator broadcast can roll the suffix of
        the window back and replay it deterministically.  The snapshot
        must capture *everything* ``on_item`` / ``on_columns`` can
        mutate — RNG positions included — such that
        :meth:`restore_state` followed by the same inputs reproduces
        the same outputs bit for bit.  Returning ``None`` (the default)
        means "unsupported": engines then snapshot by pickling the
        whole site, which is always correct, just slower.
        """
        return None

    def restore_state(self, state) -> None:
        """Rewind to a :meth:`snapshot_state` taken on this instance."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement fast state snapshots"
        )

    def state_words(self) -> int:
        """Approximate persistent state size in machine words.

        Default implementation counts nothing; protocol sites override
        so experiment E12 can check the O(1)-words claim.
        """
        return 0


class CoordinatorAlgorithm(ABC):
    """Coordinator half of a distributed protocol."""

    @abstractmethod
    def on_message(
        self, site_id: int, message: "Message"
    ) -> List[Tuple[int, "Message"]]:
        """Handle one upstream message.

        Returns a list of ``(destination, message)`` responses, where
        destination is a site index or :data:`BROADCAST`.
        """

    def on_message_pack(
        self, site_id: int, pack: "MessagePack"
    ) -> List[Tuple[int, "Message"]]:
        """Handle one upstream message pack (a whole site batch).

        The default expands the pack and feeds :meth:`on_message` one
        message at a time — exact sequential semantics for protocols
        without a bulk path.  Responses are concatenated in order; the
        network delivers them after the pack, which is observationally
        equivalent because the sending site's decisions for this batch
        were already made.  Columnar coordinators override this with a
        vectorized path (e.g.
        :meth:`repro.core.coordinator.SworCoordinator.on_message_pack`).
        """
        responses: List[Tuple[int, "Message"]] = []
        for message in pack.messages():
            responses.extend(self.on_message(site_id, message))
        return responses

    def snapshot_state(self):
        """Return a cheap opaque snapshot of ALL mutable coordinator
        state, or ``None`` (the default) for "unsupported".

        The sharded engine's run-start checkpoint takes one, so a
        worker fault can rewind the coordinator and rerun the whole
        stream in-process.  Coordinators that return ``None`` stay
        correct: the checkpoint pickles them instead.
        """
        return None

    def restore_state(self, state) -> None:
        """Rewind to a :meth:`snapshot_state` taken on this instance."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement fast state snapshots"
        )

    def state_words(self) -> int:
        """Approximate persistent state size in machine words."""
        return 0
