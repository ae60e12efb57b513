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

import pickle
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
    #: fidelity — including its generator, so a restored copy draws
    #: the same variates (a numpy ``Generator`` and a ``random.Random``
    #: both qualify): the engine pickles each shard's sites
    #: into its worker, and the default :meth:`snapshot_state` pickles
    #: the site's attributes.  A site holding unpicklable state (open
    #: files, sockets, lambdas) fails the worker setup, and the engine
    #: then runs in-process instead; a site whose pickled copy would
    #: diverge must set this ``False``.  So must a site whose messages
    #: from one window depend on controls their predecessors trigger —
    #: a lazy ``on_item`` whose next message is drawn only after the
    #: previous one's broadcasts were applied: a worker computes a
    #: site's whole window before the parent folds any of it, and never
    #: applies a control between two messages of one site's window.
    shardable: bool = True

    @abstractmethod
    def on_item(self, item: Item) -> List["Message"]:
        """Observe one local arrival; return upstream messages (maybe [])."""

    def on_columns(self, idents, weights):
        """Observe a batch of local arrivals given as parallel columns.

        Bulk hook used by the columnar data plane: ``idents`` and
        ``weights`` are aligned numpy arrays for this site's share of a
        batch window.  Returns either a
        :class:`~repro.net.messages.MessagePack` (vectorized sites) or
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
        """Return a snapshot of ALL mutable site state.

        The one way an engine rewinds or transplants a site, paired
        with :meth:`restore_state`.  Every engine snapshots every site
        in its run-start checkpoint
        (:meth:`~repro.runtime.network.Network.snapshot_state`; a run
        that raises is rewound to it, and a sharded worker fault
        rewinds the network to it and reruns in-process).  The sharded
        engine also snapshots every site before each window (a
        mid-window broadcast rolls the window's later sites back to it,
        a missed speculation the whole shard), and at run end (each
        worker ships its sites' snapshots, and the parent restores its
        own copies of the sites from them).  The snapshot must capture
        *everything* ``on_item`` / ``on_columns`` / ``on_control`` can
        mutate — the generator's state included — such that
        :meth:`restore_state` followed by the same inputs reproduces
        the same outputs bit for bit.

        This default pickles the instance's attributes, which is
        faithful for every site :attr:`shardable` admits (a site without
        a ``__dict__`` must override both methods); a site whose
        attributes do not pickle makes it raise, and its runs then go
        without a checkpoint.  Protocol sites
        override it with a value snapshot of their few fields — their
        one generator's ``bit_generator.state`` (four 64-bit words) and
        a few scalars — which is much cheaper per window.
        """
        return pickle.dumps(vars(self), protocol=pickle.HIGHEST_PROTOCOL)

    def restore_state(self, state) -> None:
        """Rewind to a :meth:`snapshot_state` taken on this instance or
        on a copy of it (the parent restores its site from the
        snapshot the worker's copy took), leaving the snapshot as it
        was: the engine may restore it again.  This default replaces
        the instance's attributes in place, so every reference to the
        site stays valid."""
        attributes = vars(self)
        attributes.clear()
        attributes.update(pickle.loads(state))

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
        """Return a snapshot of ALL mutable coordinator state.

        Every engine's run-start checkpoint takes one, so a run that
        raises rewinds the coordinator, and a sharded worker fault can
        rerun the whole stream in-process.  The contract is
        :meth:`SiteAlgorithm.snapshot_state`'s, and so is this default:
        it pickles the instance's attributes.
        """
        return pickle.dumps(vars(self), protocol=pickle.HIGHEST_PROTOCOL)

    def restore_state(self, state) -> None:
        """Rewind to a :meth:`snapshot_state` taken on this instance, in
        place: the network and the protocol facade keep holding this
        same object."""
        attributes = vars(self)
        attributes.clear()
        attributes.update(pickle.loads(state))

    def state_words(self) -> int:
        """Approximate persistent state size in machine words."""
        return 0
