"""Typed messages exchanged between sites and the coordinator.

The paper's cost model counts *messages*, each a constant number of
machine words (Section 2.1, Proposition 7).  We model a message as a
kind tag plus a small payload tuple; the word accounting in
:mod:`repro.common.words` verifies payloads stay O(1) words.

Message kinds mirror the paper's vocabulary:

* ``EARLY`` — site forwards a withheld item to a level set
  (Algorithm 1 line 8);
* ``REGULAR`` — site forwards an item whose key beat the epoch
  threshold (Algorithm 1 line 13);
* ``LEVEL_SATURATED`` — coordinator broadcast when a level set fills
  (Algorithm 2 line 17);
* ``EPOCH_UPDATE`` — coordinator broadcast of the new threshold
  (Algorithm 3 line 8);
* the remaining kinds serve the SWR reduction and the application-layer
  trackers (rounds, counter reports, estimate refreshes).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as _np

__all__ = [
    "Message",
    "MessagePack",
    "PackWireError",
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
]

EARLY = "early"
REGULAR = "regular"
LEVEL_SATURATED = "level_saturated"
EPOCH_UPDATE = "epoch_update"
ROUND_UPDATE = "round_update"
SWR_SAMPLE = "swr_sample"
COUNT_REPORT = "count_report"
ESTIMATE_BROADCAST = "estimate_broadcast"
RAW_ITEM = "raw_item"

#: Kinds that travel site -> coordinator.
UPSTREAM_KINDS = frozenset({EARLY, REGULAR, SWR_SAMPLE, COUNT_REPORT, RAW_ITEM})
#: Kinds that travel coordinator -> site(s).
DOWNSTREAM_KINDS = frozenset(
    {LEVEL_SATURATED, EPOCH_UPDATE, ROUND_UPDATE, ESTIMATE_BROADCAST}
)


class PackWireError(ValueError):
    """A pack's wire form is malformed: unknown or incomplete columns,
    ragged halves, or a descriptor pointing outside its buffer.

    Raised at the process/network boundary (:meth:`MessagePack.from_arrays`
    / :meth:`MessagePack.read_from`) so a poisoned or truncated pack is
    rejected before it can crash a coordinator fold; the sharded
    supervisor classifies it as a ``poison`` fault.  Subclasses
    :class:`ValueError` for compatibility with pre-existing callers.
    """


class Message:
    """One network message: a kind tag and a small payload tuple.

    Deliberately minimal (``__slots__``) — protocol hot paths construct
    many of these.  ``_words`` caches the payload's word-accounting cost
    (filled lazily by :class:`~repro.net.counters.MessageCounters`): the
    same object is counted once per broadcast copy, so the cache
    amortizes the accounting across deliveries.
    """

    __slots__ = ("kind", "payload", "_words")

    def __init__(self, kind: str, payload: Tuple = ()) -> None:
        self.kind = kind
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Message({self.kind!r}, {self.payload!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Message)
            and other.kind == self.kind
            and other.payload == self.payload
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.payload))


class MessagePack:
    """One site -> coordinator transmission carrying a whole batch.

    The columnar runtime's wire unit: instead of ``N`` separate
    :class:`Message` objects per (site, batch), a single pack carries
    the batch's ``EARLY`` and keyed entries as parallel arrays, in the
    exact order per-message delivery would have carried the individual
    messages (all earlies in arrival order, then all keyed entries in
    arrival order).  A pack is pure transport: it stands for its
    constituent messages, and its word accounting (see
    :meth:`~repro.net.counters.MessageCounters.record_upstream_pack`)
    equals the sum over :meth:`messages` exactly — a pack is never
    cheaper or dearer than what it replaces, it just avoids the
    per-message Python objects.

    The keyed ("regular") half is kind-parametric so every protocol's
    columnar path shares one wire unit: ``regular_kind`` defaults to
    ``REGULAR`` (payload ``(ident, weight, key)`` — weighted SWOR,
    unweighted SWOR, the L1 tracker), and the SWR reduction sets it to
    ``SWR_SAMPLE`` with the per-entry sampler index in the
    ``regular_extra`` column (payload
    ``(sampler, ident, weight, key)``).

    ``early_levels`` is the per-early level index (a pure function of
    the weight and the protocol's ``r``, computed vectorized at the
    site); it carries no information beyond the payloads and is not
    counted as words.  ``early_items`` is an
    optional memo of pre-built :class:`~repro.stream.item.Item` objects
    aligned with the early columns — multi-query drivers attach one
    shared list so every member coordinator parks the same objects.

    Either half may be ``None`` (no entries of that kind).
    """

    __slots__ = (
        "early_idents",
        "early_weights",
        "early_levels",
        "regular_idents",
        "regular_weights",
        "regular_keys",
        "regular_kind",
        "regular_extra",
        "early_items",
    )

    def __init__(
        self,
        early_idents=None,
        early_weights=None,
        early_levels=None,
        regular_idents=None,
        regular_weights=None,
        regular_keys=None,
        regular_kind: str = REGULAR,
        regular_extra=None,
    ) -> None:
        self.early_idents = early_idents
        self.early_weights = early_weights
        self.early_levels = early_levels
        self.regular_idents = regular_idents
        self.regular_weights = regular_weights
        self.regular_keys = regular_keys
        self.regular_kind = regular_kind
        self.regular_extra = regular_extra
        self.early_items = None

    @property
    def num_early(self) -> int:
        return 0 if self.early_idents is None else len(self.early_idents)

    @property
    def num_regular(self) -> int:
        return 0 if self.regular_idents is None else len(self.regular_idents)

    def __len__(self) -> int:
        return self.num_early + self.num_regular

    def messages(self):
        """Materialize the constituent :class:`Message` objects, in
        delivery order — the pack's meaning, used by traced networks,
        generic coordinators, and the accounting-equality tests."""
        out = []
        for i in range(self.num_early):
            out.append(
                Message(
                    EARLY,
                    (int(self.early_idents[i]), float(self.early_weights[i])),
                )
            )
        kind = self.regular_kind
        extra = self.regular_extra
        for i in range(self.num_regular):
            payload = (
                int(self.regular_idents[i]),
                float(self.regular_weights[i]),
                float(self.regular_keys[i]),
            )
            if extra is not None:
                payload = (int(extra[i]),) + payload
            out.append(Message(kind, payload))
        return out

    #: Canonical wire dtype per column (the site fast paths already
    #: produce exactly these; :meth:`from_arrays` re-coerces so a pack
    #: that crossed a process or network boundary word-accounts exactly
    #: like the pack it was serialized from).
    WIRE_DTYPES = {
        "early_idents": "int64",
        "early_weights": "float64",
        "early_levels": "int64",
        "regular_idents": "int64",
        "regular_weights": "float64",
        "regular_keys": "float64",
        "regular_extra": "int64",
    }

    def to_arrays(self) -> Tuple[str, Dict[str, object]]:
        """Pure-array wire form: ``(regular_kind, {column: array})``.

        The inverse of :meth:`from_arrays`.  Only the columns that are
        present appear in the dict (see :data:`WIRE_DTYPES` for the
        full set); the ``early_items`` memo is transport-local and
        deliberately **not** part of the wire form.  This is what the
        sharded engine ships between worker and coordinator processes —
        a handful of flat int64/float64 buffers per (site, batch) — and
        doubles as the natural frame for shipping packs over a real
        network.
        """
        columns: Dict[str, object] = {}
        for name in self.WIRE_DTYPES:
            value = getattr(self, name)
            if value is not None:
                columns[name] = value
        return self.regular_kind, columns

    def write_into(self, view, offset: int, limit: int):
        """Serialize the wire columns into a writable buffer slot.

        Copies each :meth:`to_arrays` column into ``view`` starting at
        ``offset`` and returns ``(regular_kind, spec, end)`` where
        ``spec`` maps column name to ``(offset, dtype_str, count)`` —
        the descriptor :meth:`read_from` rebuilds from.  Returns
        ``None`` when the columns do not fit before ``limit`` (the
        caller then falls back to inline transport).  This is the
        sharded engine's shared-memory ring format: with the
        double-buffered pipelined transport each (worker, window) owns
        the ``[offset, limit)`` slot exclusively until the window
        commits, so a writer never races the parent's zero-copy reads
        of the previous slot.
        """
        _, columns = self.to_arrays()
        total = sum(array.nbytes for array in columns.values())
        if offset + total > limit:
            return None
        spec = {}
        for name, array in columns.items():
            array = _np.ascontiguousarray(array)
            nbytes = array.nbytes
            view[offset : offset + nbytes] = memoryview(array).cast("B")
            spec[name] = (offset, array.dtype.str, len(array))
            offset += nbytes
        return self.regular_kind, spec, offset

    @classmethod
    def read_from(
        cls, buf, regular_kind: str, spec: Dict[str, Tuple[int, str, int]]
    ) -> "MessagePack":
        """Rebuild a pack from a :meth:`write_into` descriptor.

        The returned pack's columns are zero-copy views over ``buf``
        (wire dtypes match, so :meth:`from_arrays` does not copy);
        callers must consume the pack before the slot is rewritten.
        """
        nbytes = len(buf) if isinstance(buf, (bytes, bytearray)) else buf.nbytes
        columns = {}
        for name, (offset, dtype, count) in spec.items():
            dt = _np.dtype(dtype)
            end = offset + dt.itemsize * count
            if offset < 0 or count < 0 or end > nbytes:
                raise PackWireError(
                    f"truncated pack: column {name!r} wants bytes "
                    f"[{offset}, {end}) of a {nbytes}-byte buffer"
                )
            columns[name] = _np.frombuffer(
                buf, dtype=dt, count=count, offset=offset
            )
        return cls.from_arrays(regular_kind, columns)

    @classmethod
    def from_arrays(
        cls, regular_kind: str, columns: Dict[str, object]
    ) -> "MessagePack":
        """Rebuild a pack from its :meth:`to_arrays` wire form.

        Columns are coerced to their canonical :data:`WIRE_DTYPES`
        (no-copy for arrays already in wire dtype, e.g. zero-copy views
        over a shared-memory ring), so ``pack.messages()`` and the
        counter accounting of the round-tripped pack match the original
        exactly.
        """
        unknown = set(columns) - set(cls.WIRE_DTYPES)
        if unknown:
            raise PackWireError(
                f"unknown MessagePack columns: {sorted(unknown)}"
            )
        kwargs = {
            name: _np.ascontiguousarray(value, dtype=cls.WIRE_DTYPES[name])
            for name, value in columns.items()
        }
        # Each half travels complete or not at all (``regular_extra``
        # is the one genuinely optional column): a partial half would
        # build a pack that only crashes later, deep in a coordinator
        # fold — wire input gets rejected here, at the boundary.
        for half, required in (
            ("early", ("early_idents", "early_weights", "early_levels")),
            ("regular", ("regular_idents", "regular_weights", "regular_keys")),
        ):
            present = [name for name in required if name in kwargs]
            if present and len(present) != len(required):
                missing = sorted(set(required) - set(present))
                raise PackWireError(
                    f"incomplete {half} half: missing columns {missing}"
                )
            lengths = {
                name: len(value)
                for name, value in kwargs.items()
                if name.startswith(half)
            }
            if len(set(lengths.values())) > 1:
                raise PackWireError(
                    f"{half} column lengths disagree: {lengths}"
                )
        if "regular_extra" in kwargs and "regular_idents" not in kwargs:
            raise PackWireError(
                "regular_extra requires the regular half to be present"
            )
        return cls(regular_kind=regular_kind, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessagePack(early={self.num_early}, regular={self.num_regular})"
