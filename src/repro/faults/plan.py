"""Declarative, deterministic fault injection for the sharded runtime.

A :class:`FaultPlan` is a small list of :class:`FaultSpec` entries, each
naming a fault *kind*, the worker it strikes, and the window at which it
fires.  The plan is threaded through test-only seams in the sharded
engine, all of them worker-side: seams fire just before/instead of a
result send (``kill``/``hang``/``drop``) or on the encoded wire
descriptors (``corrupt``/``truncate``).

Everything here is deterministic by construction: firing is keyed on
(worker, window) — never on wall-clock time — and the only randomness
is the seeded :class:`random.Random` behind :meth:`FaultPlan.single`.
The package deliberately never imports :mod:`time` (reprolint R004:
``repro.faults`` is not a clock-allowed layer); the ``hang`` kind
blocks on an un-signalled :class:`threading.Event` instead of sleeping.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Iterable, List, Optional, Sequence, Tuple

from ..common.errors import ConfigurationError

__all__ = [
    "CHAOS_EXITCODE",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "block_forever",
    "chaos_exit",
    "corrupt_descriptors",
    "fault_action",
    "parse_fault_plan",
]

#: Exit status a ``kill`` fault dies with — distinguishable from a real
#: interpreter crash in the supervisor's fault detail.
CHAOS_EXITCODE = 73

#: Every kind fires at (worker, window).
FAULT_KINDS = (
    "kill",  # os._exit before sending the window's results
    "hang",  # block forever before sending the window's results
    "drop",  # silently skip the result send (parent sees a hang)
    "corrupt",  # mangle a pack descriptor so wire validation rejects it
    "truncate",  # point a pack descriptor past its buffer
)


class FaultSpec:
    """One planned fault: ``kind`` strikes ``worker`` at ``window``."""

    __slots__ = ("kind", "worker", "window")

    def __init__(self, kind: str, worker: int, window: int) -> None:
        if kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        if worker < 0:
            raise ConfigurationError(f"fault worker must be >= 0, got {worker}")
        if window < 0:
            raise ConfigurationError(f"fault window must be >= 0, got {window}")
        self.kind = kind
        self.worker = worker
        self.window = window

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSpec({self.kind!r}, worker={self.worker}, window={self.window})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaultSpec)
            and other.kind == self.kind
            and other.worker == self.worker
            and other.window == self.window
        )

    def __str__(self) -> str:
        return f"{self.kind}:{self.worker}:{self.window}"


class FaultPlan:
    """An ordered set of planned faults for one sharded run.

    Nothing mutates a plan: every run ships each worker its entries
    afresh, so a plan on a long-lived engine re-fires every run.  The
    first fault that fires degrades the run, so later entries of the
    same run never fire.
    """

    def __init__(self, entries: Iterable[FaultSpec] = ()) -> None:
        self.entries: List[FaultSpec] = list(entries)
        for entry in self.entries:
            if not isinstance(entry, FaultSpec):
                raise ConfigurationError(
                    f"FaultPlan entries must be FaultSpec, got {entry!r}"
                )

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and other.entries == self.entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.entries!r})"

    def __str__(self) -> str:
        return ",".join(str(entry) for entry in self.entries)

    def wire_for(self, worker: int) -> Tuple[Tuple[str, int], ...]:
        """The (kind, window) pairs shipped in ``worker``'s payload."""
        return tuple(
            (e.kind, e.window) for e in self.entries if e.worker == worker
        )

    @classmethod
    def single(
        cls,
        seed: int,
        workers: int,
        windows: int,
        kinds: Sequence[str] = FAULT_KINDS,
    ) -> "FaultPlan":
        """A seeded one-fault plan: pick (kind, worker, window)
        uniformly from the given ranges — the chaos suite's property
        tests draw these."""
        rng = random.Random(seed)
        return cls(
            [
                FaultSpec(
                    rng.choice(list(kinds)),
                    rng.randrange(max(1, workers)),
                    rng.randrange(max(1, windows)),
                )
            ]
        )


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the ``--fault-plan`` CLI form: comma-separated
    ``kind:worker:window`` triples, e.g. ``"kill:1:2,corrupt:0:3"``."""
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigurationError(
                f"fault plan entry {part!r} is not kind:worker:window"
            )
        kind = pieces[0].strip()
        try:
            worker, window = int(pieces[1]), int(pieces[2])
        except ValueError:
            raise ConfigurationError(
                f"fault plan entry {part!r} has non-integer fields"
            ) from None
        entries.append(FaultSpec(kind, worker, window))
    return FaultPlan(entries)


# ---------------------------------------------------------------------------
# Worker-side injection helpers (called from the sharded worker loop)
# ---------------------------------------------------------------------------


def fault_action(
    faults: Optional[Sequence[Tuple[str, int]]],
    window: int,
    kinds: Tuple[str, ...],
) -> Optional[str]:
    """First planned fault of one of ``kinds`` at ``window``, or None."""
    if not faults:
        return None
    for kind, at in faults:
        if at == window and kind in kinds:
            return kind
    return None


def block_forever() -> None:  # pragma: no cover - killed by the parent
    """Simulate a hung worker: block on an event nobody signals.  The
    supervisor's deadline fires and the process is terminated; no
    wall-clock reads, no spinning."""
    threading.Event().wait()


def chaos_exit() -> None:  # pragma: no cover - exits the process
    """Simulate a worker crash: die instantly, skipping ``finally``
    blocks and atexit handlers, exactly like a SIGKILLed process."""
    os._exit(CHAOS_EXITCODE)


def corrupt_descriptors(descriptors: list, mode: str) -> list:
    """Mangle the first pack descriptor in a worker's result list so
    the parent's wire validation rejects it (``mode == "corrupt"``:
    drop a column, leaving an incomplete half; ``mode == "truncate"``:
    inflate a ring column's count past the buffer).  When the window
    shipped no pack descriptors, a forged undecodable one is appended
    so the fault still fires deterministically.  Mutates and returns
    ``descriptors``."""
    for i, descriptor in enumerate(descriptors):
        tag = descriptor[1]
        if tag == "p":
            site_id, _, kind, spec = descriptor
            spec = dict(spec)
            name = next(iter(spec))
            if mode == "truncate":
                offset, dtype, count = spec[name]
                spec[name] = (offset, dtype, count + (1 << 24))
            else:
                del spec[name]
            descriptors[i] = (site_id, "p", kind, spec)
            return descriptors
        if tag == "q":
            site_id, _, kind, columns = descriptor
            columns = dict(columns)
            name = next(iter(columns))
            if mode == "truncate":
                columns[name] = columns[name][:-1]
            else:
                del columns[name]
            descriptors[i] = (site_id, "q", kind, columns)
            return descriptors
    descriptors.append((-1, "q", "regular", {"regular_idents": []}))
    return descriptors
