"""The sharded engine: shard-parallel site passes in worker processes.

The paper's protocols are distributed by construction — sites compute
independently and only exchange O(1)-word messages with the coordinator
— yet every other engine runs all ``k`` sites in one interpreter.
:class:`ShardedEngine` partitions the sites into contiguous shards, one
worker *process* per shard, and keeps only the coordinator (plus the
message accounting) in the parent:

* each worker owns its shard's protocol sites and a compacted
  :class:`~repro.stream.columns.ShardSliceView` of the stream columns
  (shipped once per run, over :mod:`multiprocessing.shared_memory` when
  available, pickled over the pipe otherwise);
* per batch window the worker runs the same per-site grouping and
  ``on_columns`` site pass the columnar engine would, and ships each
  (site, batch) :class:`~repro.net.messages.MessagePack` back as flat
  columns (:meth:`~repro.net.messages.MessagePack.to_arrays`) through a
  per-worker shared-memory ring the parent reads zero-copy — falling
  back to inline pickling for oversized windows or pipe transport;
* the parent folds the packs through the **same** coordinator bulk path
  (:meth:`~repro.runtime.interfaces.CoordinatorAlgorithm.on_message_pack`)
  in the **same** deterministic ascending-(batch, site) order the
  columnar engine uses, with identical counter accounting.

Workers are spawned once per engine instance and *reused* across
``run()`` calls (each run re-ships the site states and stream shard),
so a long-lived engine amortizes process start-up away — the regime the
"saturate all cores at 100M+ items" target actually cares about.  Call
:meth:`ShardedEngine.close` to tear the pool down eagerly; a dropped
engine cleans up via ``weakref.finalize``.

Why this is bit-identical to the columnar engine
------------------------------------------------
Per-site RNG streams are derived independently
(:class:`~repro.common.rng.RandomSource` substreams plus per-site
``BatchRandom``), each site's per-window ident/weight slices are
bitwise equal to the columnar engine's (the same order-preserving
grouping over a position-compacted shard — see ``ShardSliceView``),
and the coordinator runs *in the parent*, consuming its own RNG in
fold order.
The one genuinely new piece is control flow: the columnar engine
delivers a mid-window broadcast to the *later* sites of the same
window before they compute, while shard workers compute a whole window
speculatively against the control state of the previous window.  The
engine therefore runs a **lockstep window protocol** with rollback:

1. workers compute window ``t``'s packs against the control state as of
   window ``t - 1`` and send them;
2. the parent folds them site-ascending; when a fold emits control
   traffic that could affect a *later* site of the same window (a
   threshold/epoch broadcast, a saturated level), it tells the affected
   workers to **roll back**: restore the pre-window site snapshot,
   re-apply the window's control messages to exactly the sites that
   come after each message's trigger site, recompute, and resend;
3. once the window folds clean, the parent **commits**: workers apply
   whatever control messages their sites have not seen yet and proceed
   to window ``t + 1``.

Re-computation is deterministic (same restored RNG state, same input
slices, same control prefix), so replayed sites reproduce their packs
bit for bit and the divergent suffix is recomputed exactly as the
columnar engine would have computed it after the broadcast.  Broadcasts
are logarithmically rare, so rollbacks cost a bounded number of extra
window computations per run.  Samples **and**
:class:`~repro.net.counters.MessageCounters` match the columnar engine
bit for bit at every batch size and worker count —
``benchmarks/bench_sharded.py`` pins this at the multi-million-item
scale.

Beyond lockstep: the pipelined mode
-----------------------------------
Strict lockstep leaves every worker idle while the parent folds and
the parent idle while workers compute.  With ``pipeline="on"`` (the
``"auto"`` default) the same window protocol runs *pipelined*, three
mechanisms deep, all bit-parity-preserving:

1. **Speculative windows** — after shipping window ``t``'s packs a
   worker immediately snapshots and computes window ``t + 1`` under the
   assumption that window ``t`` folds without a broadcast.  The commit
   message carries the window's control list; the worker answers with
   an explicit ``ack`` verdict: *hit* (no control touched this shard —
   the speculative packs already sitting in the parent's inbox are
   final) or *miss* (the speculation is discarded by restoring its
   pre-window snapshot, controls are applied, and ``t + 1`` is
   recomputed).  Rolls discard the speculation the same way and block
   re-speculation until commit, preserving the fast-roll invariant
   that prefix sites keep their state.  Pipe FIFO ordering makes the
   verdict unambiguous: on a hit the final ``res(t+1)`` preceded the
   ack; on a miss it follows it.
2. **Double-buffered rings** — each per-worker shared-memory ring is
   split into two slots; window ``t`` encodes into slot ``t % 2``
   (:meth:`~repro.net.messages.MessagePack.write_into`), so a worker
   writes ``t + 1`` (and, after commit of ``t``, ``t + 2``) while the
   parent still holds zero-copy views into ``t``'s slot.  A slot is
   rewritten only for data the parent has already consumed (folded
   prefixes) or discarded (rolled/missed speculation).
3. **Async coordinator folds** — within a window the parent folds
   packs in *arrival* order when the coordinator proves the fold
   order-invariant
   (:meth:`~repro.runtime.interfaces.CoordinatorAlgorithm.on_message_pack_unordered`:
   regular-only packs, no epoch crossing, no selection tie), so fold
   work overlaps the still-computing workers.  The coordinator and
   counters are snapshotted at the window start; if an ordered fold of
   the window's remainder then emits a response (whose broadcast point
   depends on fold order), the parent rewinds and refolds the whole
   window in exact ascending-site order — nothing was delivered
   downstream before the rewind, so the replay is exact.  The
   threshold ``u`` is monotone along every fold order, hence an epoch
   crossing can never be silently skipped: the fold that would cross
   either declines the unordered path or triggers the rewind.

``last_run_stats`` records speculation hits/misses, rollback and
refold counts, and a per-window timing breakdown (worker compute,
transport wait, parent fold); ``repro ... --profile --engine sharded``
prints it.

Fault tolerance: supervision, recovery, and the degradation ladder
------------------------------------------------------------------
Every worker receive is supervised (``supervision="on"``, the
default): deadline-bounded waits classify silence as a **hang**, a
dead pipe or process exit as a **crash**, and a descriptor rejected by
the wire validation in :mod:`repro.net.messages` as **poison** — while
a worker that ships its own traceback stays fail-stop
(:class:`ShardedWorkerError`, ``fault_class="error"``), since replaying
a deterministic user-code exception would just raise it again.  In
lockstep mode a classified fault triggers **deterministic
window-boundary recovery**: the dead shard's worker is reaped and
respawned on the same pool slot (bounded retries, capped backoff), its
run-start site states are re-shipped and fast-forwarded through the
committed control history (bit-identical replay — same RNG positions),
survivors rewind the in-flight window to their pre-window snapshots,
the parent's coordinator/counters rewind to the window-start snapshot,
and the window retries.  A recovered run's samples **and** message
counters are bit-identical to a fault-free one.  When recovery is
exhausted (``max_worker_restarts``) or structurally unavailable
(pipelined speculation in flight, a mid-commit fault, a coordinator
that cannot rewind), the run takes the **degradation ladder** —
pipelined -> lockstep -> in-process columnar — restoring the run-start
network checkpoint between rungs; ``last_run_stats`` records the
fault log, restart count, recovery seconds, and the rung taken
(``mode="degraded"`` at the bottom).  The chaos seams threaded through
the worker loops (:mod:`repro.faults`) inject crashes, hangs, drops,
corrupt/truncated packs, stalled acks, and respawn failures
deterministically; ``tests/test_chaos.py`` drives them across the
whole grid and asserts bit-identity or explicit degradation — never a
hang, leaked process, or leaked shared-memory segment.

Fallbacks: ``workers=1`` (or one site), instrumented networks (a
:class:`~repro.net.tracing.MessageTrace` wrapping the delivery
methods), sites that declare themselves non-shardable
(:attr:`~repro.runtime.interfaces.SiteAlgorithm.shardable`), and any
worker-setup failure (spawn unavailable, unpicklable sites, no shared
memory) all run the in-process :class:`ColumnarEngine` path instead, so
the engine is always safe to select; ``last_run_stats`` records which
mode ran.  A stream whose identifiers are not int64-representable
raises :class:`~repro.common.errors.ConfigurationError` before any site
runs, as under the columnar engine.  Sites whose bulk hooks return
*lazy* message iterators are materialized at the worker before
shipping.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
import weakref
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

import numpy as _np

try:  # shared memory may be missing on exotic builds; pipes then carry all
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform-dependent
    _shared_memory = None  # type: ignore[assignment]

from ..common.errors import ConfigurationError, ProtocolViolationError
from ..faults import (
    FaultPlan,
    block_forever,
    chaos_exit,
    corrupt_descriptors,
    fault_action,
    parse_fault_plan,
)
from ..kernels import active as _active_kernels
from ..kernels import set_default_kernels, use_kernels
from ..net.messages import MessagePack, PackWireError
from ..obs import (
    WORKER_METRIC_NAMES,
    merge_worker_deltas,
    observe_degradation,
    observe_fault,
    observe_heartbeat_age,
    observe_recovery,
    observe_sharded_stats,
)
from .batched import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_INITIAL_BATCH_SIZE,
    batch_windows,
)
from .columnar import ColumnarEngine
from .interfaces import BROADCAST

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.counters import MessageCounters
    from .network import Network

__all__ = ["ShardedEngine", "ShardedWorkerError", "WorkerSupervisor"]

#: Floor for the per-worker result ring (one window's packs always fit
#: unless the batch is enormous; oversized windows fall back to inline
#: pickling per pack, never to failure).
_MIN_RING_BYTES = 1 << 20

#: Seconds to wait for a spawned worker's ready message before treating
#: setup as failed (and falling back in-process).
_READY_TIMEOUT = 120.0

#: Default per-message supervision deadline (seconds of worker silence
#: before the supervisor classifies a hang).  Generous: a deadline only
#: has to beat "forever", not a window compute.
_DEFAULT_WORKER_TIMEOUT = 60.0

#: Respawn attempts per recovery, with capped exponential backoff.
_RESPAWN_RETRIES = 3
_RESPAWN_BACKOFF = 0.05
_RESPAWN_BACKOFF_CAP = 1.0

#: Seconds to wait for a politely-asked worker to exit before force.
_JOIN_TIMEOUT = 5.0


class ShardedWorkerError(RuntimeError):
    """A shard worker died, hung, raised, or sent a malformed pack.

    The parent raises this only after recovery is exhausted or disabled
    and the worker pool is torn down (processes joined or killed,
    shared-memory segments unlinked), so a failing site never leaks
    orphans.  Structured context rides along for programmatic handling:

    ``worker``
        The worker's pool index, or None when no single worker is at
        fault (setup failures).
    ``shard``
        The worker's ``(site_lo, site_hi)`` site range.
    ``window``
        The batch-window index being folded when the fault surfaced
        (None outside the window loop).
    ``fault_class``
        The supervisor's classification: ``"crash"`` (process exit /
        dead pipe), ``"hang"`` (deadline missed), ``"poison"``
        (malformed pack rejected by wire validation), or ``"error"``
        (the worker shipped its own traceback).
    """

    def __init__(
        self,
        message: str,
        worker_traceback: Optional[str] = None,
        *,
        worker: Optional[int] = None,
        shard: Optional[Tuple[int, int]] = None,
        window: Optional[int] = None,
        fault_class: Optional[str] = None,
    ):
        super().__init__(message)
        self.worker_traceback = worker_traceback
        self.worker = worker
        self.shard = shard
        self.window = window
        self.fault_class = fault_class

    @classmethod
    def from_fault(
        cls,
        handle,
        fault_class: str,
        detail: str,
        window: Optional[int] = None,
        worker_traceback: Optional[str] = None,
    ) -> "ShardedWorkerError":
        at = "" if window is None else f" at window {window}"
        return cls(
            f"shard worker {handle.index} (sites [{handle.site_lo}, "
            f"{handle.site_hi})){at} [{fault_class}]: {detail}",
            worker_traceback,
            worker=handle.index,
            shard=(handle.site_lo, handle.site_hi),
            window=window,
            fault_class=fault_class,
        )


class _WorkerFault(Exception):
    """Internal: one classified worker fault (crash/hang/poison) with
    enough context to recover in place or degrade.  Converted to
    :class:`ShardedWorkerError` via :meth:`to_error` when it must
    surface to the caller."""

    def __init__(self, handle, fault_class, detail, window=None) -> None:
        super().__init__(detail)
        self.handle = handle
        self.fault_class = fault_class
        self.detail = detail
        self.window = window

    def to_error(self) -> ShardedWorkerError:
        return ShardedWorkerError.from_fault(
            self.handle, self.fault_class, self.detail, self.window
        )


class _LadderFault(Exception):
    """Internal: a fault that window-boundary recovery cannot (or may
    no longer) handle — the run must take the degradation ladder."""

    def __init__(self, fault: _WorkerFault) -> None:
        super().__init__(fault.detail)
        self.fault = fault


def _attach_shm(name: str):
    """Attach an existing shared-memory segment.

    Ownership stays with the parent (which unlinks at shutdown); the
    resource tracker is shared across the spawn tree and de-duplicates
    the attach-side registration, so no unregister gymnastics are
    needed here.
    """
    return _shared_memory.SharedMemory(name=name)


def _prefix_len(controls, site_id: int) -> int:
    """Number of window controls a site must see *before* computing:
    exactly those triggered by an earlier site's fold.  Triggers are
    non-decreasing in fold order, so this is a prefix."""
    n = 0
    for trigger, _, _ in controls:
        if trigger >= site_id:
            break
        n += 1
    return n


def _adopt_site_state(dst, src) -> None:
    """Transplant a worker site's final state onto the parent's mirror.

    After a sharded run the parent's site objects have only mirrored
    control traffic; the workers hold the real per-site state (RNG
    positions, ``items_seen``, resource counters).  Copying the worker
    state back keeps facade-level introspection (``resource_report``)
    and *subsequent* ``run()`` calls on the same network bit-compatible
    with a columnar run.  The mirror's original shared ``config``
    object is kept so identity relationships survive.
    """
    if not hasattr(dst, "__dict__") or not hasattr(src, "__dict__"):
        return  # slots-only sites keep their (control-mirrored) state
    config = dst.__dict__.get("config")
    dst.__dict__.clear()
    dst.__dict__.update(src.__dict__)
    if config is not None and "config" in dst.__dict__:
        dst.__dict__["config"] = config


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _view_from_full_shm(name, spec, site_lo, site_hi):
    """Attach the parent's full-column segment and compact this shard's
    rows out of it.  The compaction copies (fancy indexing), so the
    attachment is released immediately and the worker's footprint stays
    proportional to its shard."""
    from ..stream.columns import ShardSliceView

    shm = _attach_shm(name)
    try:
        cols = {
            column: _np.frombuffer(
                shm.buf, dtype=_np.dtype(dtype), count=count, offset=offset
            )
            for column, (offset, dtype, count) in spec.items()
        }
        view = ShardSliceView.from_columns(
            cols["assignment"],
            cols["weights"],
            cols["idents"],
            site_lo,
            site_hi,
        )
    finally:
        del cols  # drop the buffer exports before closing the mapping
        try:
            shm.close()
        except BufferError:  # pragma: no cover - export still alive
            pass
    return view


class _WorkerShard:
    """Worker-side state for one run: sites, stream view, ring cursor.

    The ring is divided into equal slots (two in pipelined mode, one
    in lockstep); each window encodes into slot ``t % 2`` so writes
    for a speculative window never touch the slot the parent is still
    reading.
    """

    def __init__(self, payload, ring, slot_bytes, stream_cache) -> None:
        set_default_kernels(payload.get("kernels", "auto"), strict=False)
        self.site_lo: int = payload["site_lo"]
        self.site_hi: int = payload["site_hi"]
        self.sites: List = payload["sites"]
        stream = payload["stream"]
        if stream[0] == "cached":
            if stream_cache.get("token") != stream[1]:
                raise ProtocolViolationError(
                    "parent referenced a stream this worker has not cached"
                )
            self.view = stream_cache["view"]
        else:
            if stream[0] == "full":
                view = _view_from_full_shm(
                    stream[1], stream[2], self.site_lo, self.site_hi
                )
                token = stream[3]
            else:  # "view": pre-compacted, pipe transport
                view = stream[1]
                token = stream[2]
            stream_cache.clear()
            stream_cache["token"] = token
            stream_cache["view"] = view
            self.view = view
        self.ring = ring
        self.slot_bytes = slot_bytes
        self.ring_view = memoryview(ring.buf) if ring is not None else None
        self.ring_off = 0
        self.ring_limit = slot_bytes
        self.windows = list(
            batch_windows(
                payload["n"],
                payload["batch_size"],
                payload["initial_batch_size"],
                payload["marks"],
            )
        )
        #: Telemetry deltas accumulated between sends (``None`` when the
        #: parent's registry is disabled — every message then keeps the
        #: exact wire shape of an uninstrumented build).
        self.metrics = (
            dict.fromkeys(WORKER_METRIC_NAMES, 0.0)
            if payload.get("metrics")
            else None
        )
        #: Supervision / recovery fields (absent pre-supervisor payloads
        #: keep working: every key defaults to the unsupervised shape).
        self.worker: int = payload.get("worker", 0)
        self.supervised: bool = bool(payload.get("supervised"))
        #: Chaos seams: planned ``(kind, window)`` faults for this
        #: worker (test-only; empty/None in production).
        self.faults = payload.get("faults") or ()
        #: Deterministic recovery: fast-forward the first ``resume``
        #: windows from ``history`` (their committed control lists)
        #: without shipping anything, then rejoin the live protocol.
        self.resume: int = payload.get("resume", 0)
        self.history: List[list] = payload.get("history") or []

    def drain_metrics(self):
        """Return-and-reset the accumulated telemetry as the flat
        :data:`~repro.obs.WORKER_METRIC_NAMES`-ordered value vector
        (``None`` when metrics are disabled) — the column the worker
        appends to its result messages."""
        metrics = self.metrics
        if metrics is None:
            return None
        values = tuple(metrics.values())
        for key in metrics:
            metrics[key] = 0.0
        return values

    def compute_window(
        self,
        lo: int,
        hi: int,
        min_site: Optional[int] = None,
        slot: int = 0,
        encode: bool = True,
    ):
        """Run the shard's site passes for global window ``[lo, hi)``.

        Mirrors the columnar engine's inner loop exactly: ascending
        site ids, per-site slices in global arrival order, shared
        once-per-window ``prepare_window`` context when every shard
        site shares class and config (pack contents are invariant to
        the sharing — sites verify the context's mask — so shard-local
        sharing is parity-safe).

        ``min_site`` restricts the pass to sites with a *larger* id —
        the rollback suffix.  Pack contents are also invariant to the
        shared-prep shortcut, so the suffix pass simply skips it.
        ``slot`` selects which ring slot the window's packs encode
        into (always 0 in lockstep mode).  ``encode=False`` runs the
        pass purely for its state effects (RNG advances, per-site
        accounting) without serializing anything — the recovery replay
        of already-committed windows.
        """
        i0, i1 = self.view.window_bounds(lo, hi)
        if i0 == i1:
            return []
        metrics = self.metrics
        if metrics is not None:
            t_start = time.perf_counter()
            if min_site is None:
                metrics["windows" if encode else "replay_windows"] += 1
        site_ids, starts, ends, idents_sorted, weights_sorted = (
            self.view.window_order(i0, i1)
        )
        window_prep = None
        if min_site is None:
            site0 = self.sites[0]
            cls0, cfg0 = type(site0), getattr(site0, "config", None)
            share_prep = (
                hasattr(site0, "prepare_window")
                and cfg0 is not None
                and all(
                    type(s) is cls0 and getattr(s, "config", None) is cfg0
                    for s in self.sites
                )
            )
            if share_prep:
                window_prep = site0.prepare_window(weights_sorted)
        self.ring_off = slot * self.slot_bytes
        self.ring_limit = self.ring_off + self.slot_bytes
        out = []
        for site_id, start, end in zip(site_ids, starts, ends):
            if min_site is not None and site_id <= min_site:
                continue
            result = self.sites[site_id - self.site_lo].on_columns(
                idents_sorted[start:end],
                weights_sorted[start:end],
                prep=(
                    None if window_prep is None else (window_prep, start, end)
                ),
            )
            if not encode:
                if not isinstance(result, MessagePack):
                    list(result)  # drive lazy hooks for their state effects
                continue
            descriptor = self._encode(site_id, result)
            if descriptor is not None:
                out.append(descriptor)
        if metrics is not None:
            metrics["compute_seconds"] += time.perf_counter() - t_start
        return out

    def _encode(self, site_id: int, result):
        """Serialize one site's window result for the pipe/ring.

        Packs go as flat columns — into the shared-memory ring when
        they fit (the parent rebuilds zero-copy views), inline
        otherwise; scalar fallbacks (single-item site batches) go as
        pickled message lists, materialized here because a lazy
        iterator cannot cross the process boundary.
        """
        metrics = self.metrics
        if isinstance(result, MessagePack):
            if len(result) == 0:
                return None
            if metrics is not None:
                metrics["packs"] += 1
                metrics["pack_entries"] += len(result)
            if self.ring is not None:
                encoded = result.write_into(
                    self.ring_view, self.ring_off, self.ring_limit
                )
                if encoded is not None:
                    kind, spec, end = encoded
                    if metrics is not None:
                        metrics["ring_bytes"] += end - self.ring_off
                    self.ring_off = end
                    return (site_id, "p", kind, spec)
            kind, columns = result.to_arrays()
            return (site_id, "q", kind, columns)
        messages = list(result)
        if not messages:
            return None
        if metrics is not None:
            metrics["packs"] += 1
            metrics["pack_entries"] += len(messages)
        return (site_id, "m", messages)

    def close(self) -> None:
        """Release this run's ring cursor (the cached view persists so
        the next run over the same stream skips the compaction)."""
        self.ring_view = None
        self.view = None


def _snapshot_sites(sites):
    """Window-boundary snapshot of a shard's sites.

    Prefers the sites' cheap :meth:`snapshot_state` hooks (a few
    microseconds per site); any site without one degrades the whole
    shard to pickling, which is always correct.
    """
    states = []
    for site in sites:
        state = site.snapshot_state()
        if state is None:
            return (
                "pickle",
                pickle.dumps(sites, protocol=pickle.HIGHEST_PROTOCOL),
            )
        states.append(state)
    return ("fast", states)


def _restore_sites(shard: "_WorkerShard", snapshot) -> None:
    kind, data = snapshot
    if kind == "pickle":
        shard.sites = pickle.loads(data)
    else:
        for site, state in zip(shard.sites, data):
            site.restore_state(state)


def _apply_commit(shard: _WorkerShard, applied, controls) -> None:
    """Commit a window: apply the controls each site has not seen yet."""
    for idx, site in enumerate(shard.sites):
        for _, dest, ctrl in controls[applied[idx] :]:
            if dest == BROADCAST or dest == shard.site_lo + idx:
                site.on_control(ctrl)


def _apply_roll(
    shard: _WorkerShard, lo, hi, snapshot, applied, from_site, controls, slot=0
):
    """Serve one rollback for window ``[lo, hi)``; return replacement
    descriptors for the invalidated suffix (sites after ``from_site``).

    Shared by the lockstep and pipelined worker loops; ``snapshot`` and
    ``applied`` are the window's pre-compute state and per-site control
    cursor, mutated in place across repeated rolls of the same window.
    """
    if shard.metrics is not None:
        shard.metrics["rolls_served"] += 1
    if snapshot is None:
        # No arrivals this window: nothing to replay, just advance
        # each site's control prefix incrementally.
        for idx, site in enumerate(shard.sites):
            site_id = shard.site_lo + idx
            n_pre = _prefix_len(controls, site_id)
            for _, dest, ctrl in controls[applied[idx] : n_pre]:
                if dest == BROADCAST or dest == site_id:
                    site.on_control(ctrl)
            applied[idx] = n_pre
        return []
    if snapshot[0] == "fast":
        # Per-site snapshots are independent: rewind and replay ONLY
        # the invalidated suffix (sites after the trigger); prefix
        # sites keep their state and their already-folded packs.
        # Every control's trigger is <= from_site, so the whole list
        # applies to every suffix site.
        states = snapshot[1]
        for idx, site in enumerate(shard.sites):
            site_id = shard.site_lo + idx
            if site_id <= from_site:
                continue
            site.restore_state(states[idx])
            for _, dest, ctrl in controls:
                if dest == BROADCAST or dest == site_id:
                    site.on_control(ctrl)
            applied[idx] = len(controls)
        return shard.compute_window(lo, hi, min_site=from_site, slot=slot)
    # Pickled snapshot: the site list is restored wholesale, so the
    # prefix must be replayed too (deterministically identical) and
    # its packs dropped from the resend.
    _restore_sites(shard, snapshot)
    for idx, site in enumerate(shard.sites):
        site_id = shard.site_lo + idx
        n_pre = _prefix_len(controls, site_id)
        for _, dest, ctrl in controls[:n_pre]:
            if dest == BROADCAST or dest == site_id:
                site.on_control(ctrl)
        applied[idx] = n_pre
    results = shard.compute_window(lo, hi, slot=slot)
    return [d for d in results if d[0] > from_site]


def _send_state(shard: _WorkerShard, conn) -> None:
    pickled = pickle.dumps(shard.sites, protocol=pickle.HIGHEST_PROTOCOL)
    if shard.metrics is None:
        conn.send(("sta", shard.site_lo, pickled))
    else:
        # Leftover telemetry (post-commit work since the last result
        # send) rides with the final state message.
        conn.send(("sta", shard.site_lo, pickled, shard.drain_metrics()))


def _replay_history(shard: _WorkerShard) -> None:
    """Fast-forward a respawned worker through its shard's already
    committed windows, without shipping anything.

    Per window the live protocol leaves each site in the state
    "pre-window state, then the controls triggered by *earlier* sites
    (rolls pre-apply them before the site's final compute), then the
    compute, then the remaining controls (applied at commit)".  The
    replay reproduces exactly that placement from the committed control
    lists, so end-of-window site states — including RNG positions —
    are bit-identical to the run that faulted.
    """
    for t in range(shard.resume):
        lo, hi = shard.windows[t]
        controls = shard.history[t] if t < len(shard.history) else []
        if controls:
            for idx, site in enumerate(shard.sites):
                site_id = shard.site_lo + idx
                for _, dest, ctrl in controls[: _prefix_len(controls, site_id)]:
                    if dest == BROADCAST or dest == site_id:
                        site.on_control(ctrl)
        shard.compute_window(lo, hi, encode=False)
        if controls:
            for idx, site in enumerate(shard.sites):
                site_id = shard.site_lo + idx
                for _, dest, ctrl in controls[_prefix_len(controls, site_id):]:
                    if dest == BROADCAST or dest == site_id:
                        site.on_control(ctrl)


def _send_results(shard: _WorkerShard, conn, t: int, results) -> None:
    """Ship one lockstep window's descriptors, through the chaos seams:
    a planned wire fault mangles the descriptors; a planned process
    fault kills/hangs/drops instead of sending.  With no plan (every
    production run) this is exactly the plain send."""
    if shard.faults:
        wire = fault_action(shard.faults, t, ("corrupt", "truncate"))
        if wire is not None:
            results = corrupt_descriptors(list(results), wire)
        action = fault_action(shard.faults, t, ("kill", "hang", "drop"))
        if action == "kill":
            chaos_exit()
        elif action == "hang":
            block_forever()
        elif action == "drop":
            return
    if shard.metrics is None:
        conn.send(("res", results))
    else:
        conn.send(("res", results, shard.drain_metrics()))


def _worker_run(shard: _WorkerShard, conn) -> None:
    """The lockstep window protocol, worker side, for one run.

    Per window: compute speculatively against last-committed control
    state, send, then serve ``roll`` (restore the pre-window snapshot,
    re-apply each control message to exactly the sites after its
    trigger, recompute, resend the suffix) until the parent ``com``mits
    — at which point every site applies the control messages it has not
    seen yet and the next window starts.  Under supervision two more
    commands exist: a respawned worker starts with a
    :func:`_replay_history` fast-forward, and ``rwd`` rewinds the
    current (uncommitted) window to its pre-window snapshot so the
    parent can retry it after another worker's fault.
    """
    if shard.resume:
        _replay_history(shard)
    for t in range(shard.resume, len(shard.windows)):
        lo, hi = shard.windows[t]
        i0, i1 = shard.view.window_bounds(lo, hi)
        # Pre-window state, captured BEFORE the compute so rollback
        # replays from exactly this point (same RNG positions).
        # Skipped when the shard has no arrivals (nothing mutates) —
        # except under supervision, where a post-fault ``rwd`` must be
        # able to undo controls a roll applied mid-window.
        snapshot = (
            _snapshot_sites(shard.sites)
            if i0 != i1 or shard.supervised
            else None
        )
        if snapshot is not None and shard.metrics is not None:
            shard.metrics["snapshots"] += 1
        results = shard.compute_window(lo, hi)
        applied = [0] * len(shard.sites)
        _send_results(shard, conn, t, results)
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "com":
                _apply_commit(shard, applied, message[1])
                break
            if tag == "roll":
                from_site, controls = message[1], message[2]
                replacements = _apply_roll(
                    shard, lo, hi, snapshot, applied, from_site, controls
                )
                _send_results(shard, conn, t, replacements)
                continue
            if tag == "rwd":
                if message[1] != t:
                    raise ProtocolViolationError(
                        f"rwd for window {message[1]} but worker is at {t}"
                    )
                if snapshot is not None:
                    _restore_sites(shard, snapshot)
                applied = [0] * len(shard.sites)
                results = shard.compute_window(lo, hi)
                conn.send(("rwdok",))
                _send_results(shard, conn, t, results)
                continue
            raise ProtocolViolationError(
                f"shard worker got unexpected command {tag!r}"
            )
    message = conn.recv()
    if message[0] != "fin":
        raise ProtocolViolationError(
            f"shard worker got unexpected command {message[0]!r} at run end"
        )
    _send_state(shard, conn)


class _SpecWindow:
    """Worker-side record of one in-flight (sent, uncommitted) window."""

    __slots__ = ("t", "lo", "hi", "snapshot", "applied", "rolled")

    def __init__(self, t, lo, hi, snapshot, num_sites) -> None:
        self.t = t
        self.lo = lo
        self.hi = hi
        self.snapshot = snapshot
        self.applied = [0] * num_sites
        self.rolled = False


def _worker_run_pipelined(shard: _WorkerShard, conn) -> None:
    """The pipelined window protocol, worker side, for one run.

    Up to two windows are in flight: the *head* (oldest, awaiting the
    parent's verdict) and one *speculative* window computed under the
    assumption that the head commits without controls touching this
    shard.  Message grammar (worker side):

    * send ``("res", t, descriptors, compute_seconds)`` after each
      window compute (first sends and speculative recomputes alike);
    * on ``("roll", t, from_site, controls)``: discard the speculation
      (restore its pre-window snapshot — it was computed from a now
      invalid state), mark the head rolled (re-speculation would break
      the fast roll's prefix-keeps-state invariant), replay/recompute
      via :func:`_apply_roll`, send ``("rep", t, replacements)``;
    * on ``("com", t, controls)``: pop the head and answer
      ``("ack", t, hit)`` — *hit* iff the head was never rolled and no
      unseen control targets this shard, i.e. the speculation is
      valid.  On a miss the speculation is discarded, the controls are
      applied, and the fill loop recomputes the next window fresh.

    The pipe is FIFO both ways, so the parent can order the ack
    against the speculative ``res``: on a hit the buffered ``res`` is
    final; on a miss the fresh one follows the ack.
    """
    windows = shard.windows
    total = len(windows)
    num_sites = len(shard.sites)
    entries: List[_SpecWindow] = []
    nxt = 0
    while entries or nxt < total:
        while (
            nxt < total
            and len(entries) < 2
            and not (entries and entries[0].rolled)
        ):
            lo, hi = windows[nxt]
            i0, i1 = shard.view.window_bounds(lo, hi)
            snapshot = _snapshot_sites(shard.sites) if i0 != i1 else None
            if snapshot is not None and shard.metrics is not None:
                shard.metrics["snapshots"] += 1
            t0 = time.perf_counter()
            results = shard.compute_window(lo, hi, slot=nxt % 2)
            elapsed = time.perf_counter() - t0
            dropped = False
            if shard.faults:
                wire = fault_action(shard.faults, nxt, ("corrupt", "truncate"))
                if wire is not None:
                    results = corrupt_descriptors(list(results), wire)
                action = fault_action(
                    shard.faults, nxt, ("kill", "hang", "drop")
                )
                if action == "kill":
                    chaos_exit()
                elif action == "hang":
                    block_forever()
                elif action == "drop":
                    dropped = True
            if not dropped:
                if shard.metrics is None:
                    conn.send(("res", nxt, results, elapsed))
                else:
                    conn.send(
                        ("res", nxt, results, elapsed, shard.drain_metrics())
                    )
            entries.append(_SpecWindow(nxt, lo, hi, snapshot, num_sites))
            nxt += 1
        message = conn.recv()
        tag = message[0]
        if tag == "com":
            controls = message[2]
            head = entries.pop(0)
            miss = head.rolled
            if not miss and controls:
                for idx in range(num_sites):
                    site_id = shard.site_lo + idx
                    for _, dest, _ctrl in controls[head.applied[idx] :]:
                        if dest == BROADCAST or dest == site_id:
                            miss = True
                            break
                    if miss:
                        break
            if shard.faults and fault_action(
                shard.faults, head.t, ("stall_ack",)
            ):
                block_forever()
            conn.send(("ack", head.t, not miss))
            if miss:
                if entries:
                    # The speculation ran from pre-control state:
                    # rewind to its own pre-window snapshot (= the
                    # committed window's end state) and recompute.
                    spec = entries.pop(0)
                    if spec.snapshot is not None:
                        _restore_sites(shard, spec.snapshot)
                    nxt = spec.t
                    if shard.metrics is not None:
                        shard.metrics["spec_recomputes"] += 1
                _apply_commit(shard, head.applied, controls)
        elif tag == "roll":
            from_site, controls = message[2], message[3]
            head = entries[0]
            if len(entries) > 1:
                spec = entries.pop()
                if spec.snapshot is not None:
                    _restore_sites(shard, spec.snapshot)
                nxt = spec.t
                if shard.metrics is not None:
                    shard.metrics["spec_recomputes"] += 1
            head.rolled = True
            replacements = _apply_roll(
                shard,
                head.lo,
                head.hi,
                head.snapshot,
                head.applied,
                from_site,
                controls,
                slot=head.t % 2,
            )
            if shard.faults:
                wire = fault_action(
                    shard.faults, head.t, ("corrupt", "truncate")
                )
                if wire is not None:
                    replacements = corrupt_descriptors(
                        list(replacements), wire
                    )
            if shard.metrics is None:
                conn.send(("rep", head.t, replacements))
            else:
                conn.send(
                    ("rep", head.t, replacements, shard.drain_metrics())
                )
        else:
            raise ProtocolViolationError(
                f"shard worker got unexpected command {tag!r}"
            )
    message = conn.recv()
    if message[0] != "fin":
        raise ProtocolViolationError(
            f"shard worker got unexpected command {message[0]!r} at run end"
        )
    _send_state(shard, conn)


def _worker_main(boot, conn) -> None:
    """Process entry point: serve runs until told to go (or cut off).

    The process persists across ``run()`` calls — per-run state arrives
    with each ``run`` command — so a long-lived engine pays the spawn
    cost once.  Failures ship the original traceback to the parent.
    """
    ring = None
    try:
        ring_spec = boot["ring"]
        slot_bytes = 0
        if ring_spec is not None:
            ring = _attach_shm(ring_spec[0])
            slot_bytes = ring_spec[1]
        stream_cache: dict = {}
        conn.send(("rdy",))
        while True:
            command = conn.recv()
            if command[0] == "bye":
                break
            if command[0] != "run":
                raise ProtocolViolationError(
                    f"shard worker got unexpected command {command[0]!r}"
                )
            shard = _WorkerShard(command[1], ring, slot_bytes, stream_cache)
            try:
                if command[1].get("pipeline"):
                    _worker_run_pipelined(shard, conn)
                else:
                    _worker_run(shard, conn)
            finally:
                shard.close()
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away (shutdown or its own failure): just exit
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already closed
            pass
    finally:
        if ring is not None:
            try:
                ring.close()
            except BufferError:  # pragma: no cover - views die with us
                pass
        try:
            conn.close()
        except Exception:  # pragma: no cover - already closed
            pass


# ---------------------------------------------------------------------------
# Parent engine
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side record of one spawned shard worker."""

    __slots__ = ("index", "process", "conn", "site_lo", "site_hi", "ring")

    def __init__(self, index, process, conn, ring) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.site_lo = 0  # set per run
        self.site_hi = 0
        self.ring = ring


class _Inbox:
    """Parent-side message cursor for one worker in pipelined mode.

    The pipe is FIFO, so filing each message by tag is enough to
    resolve speculation: window ``u``'s descriptors are *final* once
    ``res[u]`` is present AND the previous window's ack verdict has
    been seen — an ack miss discards the stale speculative ``res``
    (the worker's recompute follows the ack in the pipe).
    """

    __slots__ = ("handle", "res", "secs", "acks", "reps", "deltas")

    def __init__(self, handle: _WorkerHandle) -> None:
        self.handle = handle
        self.res: dict = {}  # window -> descriptors (latest send)
        self.secs: dict = {}  # window -> worker compute seconds
        self.acks: dict = {}  # window -> speculation hit?
        self.reps: dict = {}  # window -> rollback replacements
        self.deltas: list = []  # telemetry columns, merged at commit


def _unlink_segments(shms) -> None:
    """Close and unlink owned shared-memory segments, best effort."""
    for shm in shms:
        try:
            shm.close()
        except BufferError:
            # Live pack views still reference the mapping (a fault can
            # surface mid-fold with decoded descriptors in flight).
            # Drop our handles instead: the mmap is released when the
            # last view dies, and ``__del__`` then has nothing left to
            # close — a second ``close()`` would raise the same
            # BufferError unraisably at garbage collection.
            shm._buf = None
            shm._mmap = None
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _reap_handle(handle) -> None:
    """Impolite teardown of one (dead, hung, or poisoned) worker: close
    the pipe, then terminate -> kill.  Its ring segment is deliberately
    kept — a replacement worker re-attaches the same name."""
    try:
        handle.conn.close()
    except Exception:
        pass
    process = handle.process
    try:
        if process.is_alive():
            process.terminate()
        process.join(timeout=_JOIN_TIMEOUT)
        if process.is_alive():  # pragma: no cover - unkillable
            process.kill()
            process.join(timeout=_JOIN_TIMEOUT)
    except Exception:  # pragma: no cover - reap is best-effort
        pass


def _shutdown_pool(pool) -> None:
    """Tear a worker pool down: polite bye, then force, then unlink.

    Module-level (not a method) so ``weakref.finalize`` can run it
    after the engine is gone.  Idempotent on its own via the ``closed``
    flag (recovery paths call it directly, and a failed spawn may have
    called it before ``close()`` does), and the shared-memory unlink
    runs in a ``finally`` so ``/dev/shm`` segments are released even
    when a worker refuses to die within the join timeouts.
    """
    if pool.get("closed"):
        return
    pool["closed"] = True
    try:
        for handle in pool["handles"]:
            try:
                if handle.process.is_alive():
                    handle.conn.send(("bye",))
            except Exception:
                pass
        for handle in pool["handles"]:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for handle in pool["handles"]:
            process = handle.process
            try:
                process.join(timeout=_JOIN_TIMEOUT)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=_JOIN_TIMEOUT)
                if process.is_alive():  # pragma: no cover - unkillable
                    process.kill()
                    process.join(timeout=_JOIN_TIMEOUT)
            except Exception:  # pragma: no cover - reap is best-effort
                pass
    finally:
        stream = pool.get("stream")
        _unlink_segments(pool["rings"] + (stream["shms"] if stream else []))


def _checkpoint_network(network):
    """Run-start checkpoint of everything the parent would need to
    restart the run from scratch on a lower ladder rung: site states
    (pickled wholesale — workers get slices of this on redispatch),
    the coordinator state, and the message counters."""
    coordinator_state = network.coordinator.snapshot_state()
    if coordinator_state is None:
        coordinator_state = (
            "pickle",
            pickle.dumps(
                network.coordinator, protocol=pickle.HIGHEST_PROTOCOL
            ),
        )
    else:
        coordinator_state = ("fast", coordinator_state)
    return {
        "sites": pickle.dumps(
            network.sites, protocol=pickle.HIGHEST_PROTOCOL
        ),
        "coordinator": coordinator_state,
        "counters": network.counters.snapshot_state(),
        "items_processed": network.items_processed,
    }


def _restore_network(network, checkpoint) -> None:
    """Rewind a network to its run-start checkpoint (degradation
    ladder: the next rung replays the whole run deterministically)."""
    for mirror, saved in zip(
        network.sites, pickle.loads(checkpoint["sites"])
    ):
        _adopt_site_state(mirror, saved)
    kind, state = checkpoint["coordinator"]
    if kind == "fast":
        network.coordinator.restore_state(state)
    else:
        network.coordinator = pickle.loads(state)
    network.counters.restore_state(checkpoint["counters"])
    network.items_processed = checkpoint["items_processed"]


class _WindowAttempt:
    """Parent-side fold progress for one supervised lockstep window.

    A post-fault retry refolds the window from its start; the refold is
    bit-identical to the faulted attempt (same restored coordinator,
    same recomputed packs, same order), so downstream delivery number
    ``i`` of the retry *is* delivery number ``i`` of the original.
    ``delivered`` counts deliveries whose site-mirror ``on_control``
    already ran (mirrors are not snapshotted — unlike the coordinator
    and counters, which rewind); the retry skips re-applying those
    while still re-recording their (rewound) counter traffic.
    """

    __slots__ = ("window", "folded", "delivered", "seen")

    def __init__(self, window: int) -> None:
        self.window = window
        self.folded = False  # any coordinator fold ran this window
        self.delivered = 0  # mirror deliveries that must not re-apply
        self.seen = 0  # deliveries seen so far in the current attempt


def _deliver_guarded(network, attempt, dest, response) -> None:
    """Deliver one coordinator response downstream, skipping the
    site-mirror re-application for deliveries a pre-fault fold of the
    same window already made (see :class:`_WindowAttempt`)."""
    if attempt is not None:
        attempt.seen += 1
        if attempt.seen <= attempt.delivered:
            counters = network.counters
            if dest == BROADCAST:
                counters.record_downstream(
                    response, copies=network.num_sites
                )
            else:
                counters.record_downstream(response, copies=1)
            return
        attempt.delivered += 1
    network.deliver_downstream(dest, response)


class WorkerSupervisor:
    """Parent-side supervision state for one sharded run.

    Owns fault classification bookkeeping (the fault log, restart
    budget, capped-backoff respawns), per-worker heartbeats, the
    run-start network checkpoint the degradation ladder restores, and
    the per-run clone of the engine's chaos :class:`FaultPlan`.
    Created per ``run()`` when ``supervision="on"`` (the default).
    """

    def __init__(self, timeout, max_restarts, plan, registry) -> None:
        self.timeout = float(timeout)
        self.max_restarts = int(max_restarts)
        self.plan: Optional[FaultPlan] = (
            plan.clone() if plan is not None else None
        )
        self.registry = registry
        self.restarts = 0
        self.fault_log: List[dict] = []
        self.recovery_seconds = 0.0
        self.checkpoint = None  # run-start network checkpoint (or None)
        self.last_seen: dict = {}  # worker index -> perf_counter stamp
        #: One-shot deadline extensions: a freshly respawned worker
        #: replays every committed window before its first result.
        self.boost: dict = {}

    def deadline(self, handle) -> float:
        return self.boost.get(handle.index, 0.0) + self.timeout

    def heartbeat(self, handle) -> None:
        self.boost.pop(handle.index, None)
        self.last_seen[handle.index] = time.perf_counter()

    def export_heartbeats(self) -> None:
        if not self.registry.enabled or not self.last_seen:
            return
        now = time.perf_counter()
        for worker in sorted(self.last_seen):
            observe_heartbeat_age(
                self.registry, worker, now - self.last_seen[worker]
            )

    def record_fault(self, fault, window, retire_all=False) -> None:
        self.fault_log.append(
            {
                "worker": fault.handle.index,
                "window": window,
                "fault_class": fault.fault_class,
                "detail": fault.detail,
            }
        )
        if self.plan is not None:
            self.plan.mark_fired(
                fault.handle.index, None if retire_all else window
            )
        observe_fault(self.registry, fault.fault_class)

    def wire_faults(self, worker: int):
        if self.plan is None:
            return None
        return self.plan.wire_for(worker) or None

    def take_respawn_failure(self, worker: int) -> bool:
        return self.plan is not None and self.plan.take_respawn_failure(
            worker
        )


class ShardedEngine(ColumnarEngine):
    """Columnar data plane, shard-parallel site passes.

    Parameters
    ----------
    batch_size / initial_batch_size:
        The batch schedule, exactly as in
        :class:`~repro.runtime.columnar.ColumnarEngine` (the schedules
        must coincide for the bit-parity contract to be structural).
        Larger batches amortize the per-window worker round trip.
    workers:
        Worker process count; defaults to ``os.cpu_count()``.  Clamped
        to the site count; ``1`` runs the in-process columnar path.
    transport:
        ``"auto"`` (shared memory when available, else pipes),
        ``"shm"``, or ``"pipe"`` — how stream shards and result columns
        move between processes.  Pipes are the portable fallback;
        shared memory gives the parent zero-copy column views.
    pipeline:
        ``"auto"`` (pipelined — the default), ``"on"``, or ``"off"``
        (strict lockstep).  Pipelined runs overlap worker compute with
        parent folds via speculative windows, double-buffered rings,
        and arrival-order coordinator folds (see the module docstring);
        both modes are bit-identical to the columnar engine.
    worker_timeout:
        Supervision deadline in seconds: how long a worker may stay
        silent while the parent waits on it before the supervisor
        classifies a hang.  Defaults to 60s.
    max_worker_restarts:
        In-place window-boundary recoveries allowed per run before the
        supervisor stops respawning and takes the degradation ladder
        instead (pipelined -> lockstep -> in-process columnar).
    fault_plan:
        Chaos injection (testing only): a :class:`~repro.faults.FaultPlan`
        or its ``"kind:worker:window,..."`` string form.  Cloned per
        run; ``None`` (production) leaves every seam inert.
    supervision:
        ``"on"`` (default) or ``"off"``.  Off restores the fail-stop
        behavior: any worker fault tears the pool down and raises
        :class:`ShardedWorkerError`.
    """

    name = "sharded"

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        initial_batch_size: int = DEFAULT_INITIAL_BATCH_SIZE,
        workers: Optional[int] = None,
        transport: str = "auto",
        pipeline: str = "auto",
        kernels=None,
        worker_timeout: Optional[float] = None,
        max_worker_restarts: int = 2,
        fault_plan=None,
        supervision: str = "on",
    ) -> None:
        super().__init__(
            batch_size=batch_size,
            initial_batch_size=initial_batch_size,
            kernels=kernels,
        )
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if transport not in ("auto", "shm", "pipe"):
            raise ConfigurationError(
                f"transport must be 'auto', 'shm', or 'pipe', got {transport!r}"
            )
        if pipeline not in ("auto", "on", "off"):
            raise ConfigurationError(
                f"pipeline must be 'auto', 'on', or 'off', got {pipeline!r}"
            )
        if worker_timeout is None:
            worker_timeout = _DEFAULT_WORKER_TIMEOUT
        if worker_timeout <= 0:
            raise ConfigurationError(
                f"worker_timeout must be > 0, got {worker_timeout}"
            )
        if max_worker_restarts < 0:
            raise ConfigurationError(
                f"max_worker_restarts must be >= 0, got {max_worker_restarts}"
            )
        if supervision not in ("on", "off"):
            raise ConfigurationError(
                f"supervision must be 'on' or 'off', got {supervision!r}"
            )
        if isinstance(fault_plan, str):
            fault_plan = parse_fault_plan(fault_plan)
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise ConfigurationError(
                f"fault_plan must be a FaultPlan or its string form, "
                f"got {fault_plan!r}"
            )
        self.workers = int(workers)
        self.transport = transport
        self.pipeline = pipeline
        self.worker_timeout = float(worker_timeout)
        self.max_worker_restarts = int(max_worker_restarts)
        self.fault_plan = fault_plan
        self.supervision = supervision
        self._pipelined = pipeline != "off"
        #: Observability: how the last ``run`` executed (mode, effective
        #: transport, window/rollback/speculation counts, per-window
        #: timing, warm-pool reuse).
        self.last_run_stats: dict = {}
        self._pool = None
        self._finalizer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine(batch_size={self.batch_size}, "
            f"workers={self.workers}, transport={self.transport!r}, "
            f"pipeline={self.pipeline!r})"
        )

    def close(self) -> None:
        """Shut the persistent worker pool down (idempotent).

        Runs automatically when the engine is garbage-collected or the
        interpreter exits; call it eagerly to release the worker
        processes and their shared-memory rings sooner.
        """
        if self._finalizer is not None:
            self._finalizer()  # invokes _shutdown_pool at most once
            self._finalizer = None
        self._pool = None

    # -- top level ------------------------------------------------------

    def run(
        self,
        network: "Network",
        stream,
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "MessageCounters":
        with use_kernels(self._kernels) as kernels:
            counters = self._run_sharded(
                network,
                stream,
                on_step=on_step,
                checkpoints=checkpoints,
                on_checkpoint=on_checkpoint,
            )
        if self.last_run_stats:
            self.last_run_stats.setdefault("kernels", kernels.name)
        return counters

    def _run_sharded(
        self,
        network: "Network",
        stream,
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "MessageCounters":
        t_run = time.perf_counter()
        if checkpoints is not None:
            # Materialize once: marks are computed here AND the
            # fallback engine iterates again — a one-shot iterator must
            # survive both.
            checkpoints = list(checkpoints)
        arrays = stream.arrays()
        n = len(stream)
        workers = max(1, min(self.workers, network.num_sites))
        reason = None
        if n == 0:
            reason = "empty stream"
        elif workers < 2:
            reason = "single worker"
        elif _network_instrumented(network):
            reason = "network delivery is instrumented"
        elif not all(
            getattr(site, "shardable", True) for site in network.sites
        ):
            reason = "non-shardable site"
        marks: List[int] = []
        pool = None
        supervisor = None
        if reason is None:
            base = network.items_processed
            if checkpoints is not None and on_checkpoint is not None:
                marks = sorted(
                    t - base for t in set(checkpoints) if base < t <= base + n
                )
            if self.supervision == "on":
                supervisor = WorkerSupervisor(
                    self.worker_timeout,
                    self.max_worker_restarts,
                    self.fault_plan,
                    self.registry,
                )
                try:
                    supervisor.checkpoint = _checkpoint_network(network)
                except Exception:
                    # Unpicklable network: supervise (classify faults,
                    # enforce deadlines) without recovery or ladder.
                    supervisor.checkpoint = None
            try:
                pool, warm = self._get_pool(workers)
                self._dispatch_run(
                    pool, network, arrays, n, marks, supervisor=supervisor
                )
            except Exception as exc:
                self.close()
                pool = None
                reason = f"worker setup failed: {exc!r}"
        if reason is not None:
            self.last_run_stats = {"mode": "fallback", "reason": reason}
            if self.registry.enabled:
                self.registry.counter(
                    "repro_shard_fallbacks_total",
                    "sharded runs served by the in-process columnar path",
                    labels=("reason",),
                ).labels(reason=reason.split(":")[0]).inc()
            return ColumnarEngine.run(
                self,
                network,
                stream,
                on_step=on_step,
                checkpoints=checkpoints,
                on_checkpoint=on_checkpoint,
            )
        pipelined = self._pipelined
        degraded: List[str] = []
        try:
            while True:
                try:
                    run_windows = (
                        self._run_windows_pipelined
                        if pipelined
                        else self._run_windows
                    )
                    counters = run_windows(
                        network,
                        pool,
                        n,
                        marks,
                        set(marks),
                        on_step,
                        on_checkpoint,
                        supervisor,
                    )
                    break
                except (_WorkerFault, _LadderFault) as exc:
                    fault = exc.fault if isinstance(exc, _LadderFault) else exc
                    if supervisor is not None and isinstance(
                        exc, _WorkerFault
                    ):
                        # Ladder faults were logged where they were
                        # classified; bare faults get logged here.  In
                        # pipelined mode the worker speculates one
                        # window ahead of the fold the fault surfaced
                        # in, so the whole plan entry set for this
                        # worker is retired, not just a window prefix.
                        supervisor.record_fault(
                            fault, fault.window, retire_all=True
                        )
                    if supervisor is None or supervisor.checkpoint is None:
                        _reap_handle(fault.handle)
                        self.close()
                        raise fault.to_error() from None
                    # Degradation ladder: reap + tear down, restore the
                    # run-start checkpoint, rerun on the next rung.
                    _reap_handle(fault.handle)
                    self.close()
                    pool = None
                    _restore_network(network, supervisor.checkpoint)
                    rung = "lockstep" if pipelined else "columnar"
                    pipelined = False
                    degraded.append(rung)
                    observe_degradation(self.registry, rung)
                    if rung == "lockstep":
                        try:
                            pool, warm = self._get_pool(workers)
                            self._dispatch_run(
                                pool,
                                network,
                                arrays,
                                n,
                                marks,
                                pipelined=False,
                                supervisor=supervisor,
                            )
                            continue
                        except Exception:
                            self.close()
                            pool = None
                            rung = "columnar"
                            degraded.append(rung)
                            observe_degradation(self.registry, rung)
                    # Bottom rung: the in-process columnar engine.
                    self.last_run_stats = {
                        "mode": "degraded",
                        "reason": (
                            f"fault recovery exhausted "
                            f"({fault.fault_class}: {fault.detail})"
                        ),
                        "rung": "columnar",
                    }
                    counters = ColumnarEngine.run(
                        self,
                        network,
                        stream,
                        on_step=on_step,
                        checkpoints=checkpoints,
                        on_checkpoint=on_checkpoint,
                    )
                    break
            stats = self.last_run_stats
            if stats.get("mode") == "sharded":
                stats["warm_pool"] = warm
                seconds = time.perf_counter() - t_run
                stats["engine"] = self.name
                stats["items"] = n
                stats["seconds"] = seconds
            if supervisor is not None:
                stats["supervision"] = {
                    "worker_timeout": supervisor.timeout,
                    "max_worker_restarts": supervisor.max_restarts,
                }
                if supervisor.fault_log:
                    stats["faults"] = supervisor.fault_log
                    stats["worker_restarts"] = supervisor.restarts
                    stats["recovery_seconds"] = supervisor.recovery_seconds
                if degraded:
                    stats["degraded_to"] = degraded[-1]
                    stats["degraded_from"] = (
                        "pipelined" if self._pipelined else "lockstep"
                    )
            if self.registry.enabled and stats.get("mode") == "sharded":
                self._export_run(
                    network, n, seconds, windows=stats.get("windows")
                )
                observe_sharded_stats(self.registry, stats)
            return counters
        except BaseException:
            # The pool's protocol state is unknown after a failure —
            # never reuse it.  Teardown also reaps any orphans.
            self.close()
            raise

    # -- pool lifecycle -------------------------------------------------

    def _get_pool(self, workers: int):
        """Return (pool, was_warm): reuse the live pool when its shape
        matches, else replace it."""
        pool = self._pool
        if (
            pool is not None
            and pool["workers"] == workers
            and all(h.process.is_alive() for h in pool["handles"])
        ):
            return pool, True
        self.close()
        pool = self._spawn_pool(workers)
        self._pool = pool
        self._finalizer = weakref.finalize(self, _shutdown_pool, pool)
        return pool, False

    def _spawn_pool(self, workers: int):
        from multiprocessing import get_context

        use_shm = (
            self.transport in ("auto", "shm") and _shared_memory is not None
        )
        if self.transport == "shm" and _shared_memory is None:
            raise ConfigurationError("shared memory is unavailable")
        ctx = get_context("spawn")
        slot_bytes = max(_MIN_RING_BYTES, 48 * self.batch_size + 4096)
        # Pipelined transport double-buffers: two slots per ring so a
        # worker writes window t+1 while the parent still reads t.
        slots = 2 if self._pipelined else 1
        pool = {
            "workers": workers,
            "handles": [],
            "rings": [],
            "transport": "shm" if use_shm else "pipe",
            "use_shm": use_shm,
            "slots": slots,
            "slot_bytes": slot_bytes,
            "closed": False,
        }
        try:
            for index in range(workers):
                ring = None
                ring_spec = None
                if use_shm:
                    ring = _shared_memory.SharedMemory(
                        create=True, size=slot_bytes * slots
                    )
                    pool["rings"].append(ring)
                    ring_spec = (ring.name, slot_bytes)
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=({"ring": ring_spec}, child_conn),
                    daemon=True,
                    name=f"repro-shard-{index}",
                )
                process.start()
                child_conn.close()
                pool["handles"].append(
                    _WorkerHandle(index, process, parent_conn, ring)
                )
            for handle in pool["handles"]:
                if not handle.conn.poll(_READY_TIMEOUT):
                    raise ShardedWorkerError(
                        f"shard worker {handle.index} not ready within "
                        f"{_READY_TIMEOUT:.0f}s"
                    )
                message = self._recv(handle)
                if message[0] != "rdy":
                    raise ShardedWorkerError(
                        f"shard worker {handle.index} sent {message[0]!r} "
                        "instead of ready"
                    )
        except BaseException:
            _shutdown_pool(pool)
            raise
        return pool

    def _dispatch_run(
        self, pool, network, arrays, n, marks, pipelined=None, supervisor=None
    ) -> None:
        """Ship each worker its shard for this run: site states, the
        stream columns, and the window schedule.

        The stream shipment is cached on the pool: a repeat run over
        the SAME column arrays (identity-checked via weakrefs; the
        engine assumes stream columns are immutable, which every stream
        in this package honors) just references the workers' cached
        shard views — the steady state for repeated analyses over one
        dataset.  Cold shipments move the full columns through one
        shared segment (a single memcpy in the parent) and each worker
        compacts its own shard out of it, in parallel.
        """
        from ..stream.columns import ShardSliceView

        if pipelined is None:
            pipelined = self._pipelined
        assignment, weights, idents = arrays
        num_sites = network.num_sites
        workers = pool["workers"]
        cache = pool.get("stream")
        cached = (
            cache is not None
            and cache["num_sites"] == num_sites
            and all(
                ref() is array
                for ref, array in zip(cache["refs"], arrays)
            )
        )
        if not cached:
            token = 1 if cache is None else cache["token"] + 1
            shms = []
            specs = None
            if pool["use_shm"]:
                spec, shm = _columns_to_shm(assignment, weights, idents)
                shms.append(shm)
                specs = [("full",) + spec + (token,)] * workers
            pool["stream"] = {
                "refs": [weakref.ref(array) for array in arrays],
                "num_sites": num_sites,
                "token": token,
                "shms": shms,
                # Kept for worker respawns: a fresh process has an
                # empty stream cache, so it re-attaches the full
                # segment instead of referencing ("cached", token).
                "spec_full": specs[0] if specs is not None else None,
            }
            if cache is not None:
                _unlink_segments(cache["shms"])
        else:
            token = cache["token"]
            specs = [("cached", token)] * workers
        pool["run"] = {
            "n": n,
            "marks": marks,
            "metrics": bool(self.registry.enabled),
            "pipelined": pipelined,
        }
        for handle in pool["handles"]:
            handle.site_lo, handle.site_hi = ShardSliceView.shard_range(
                num_sites, workers, handle.index
            )
            if specs is not None:
                stream_spec = specs[handle.index]
            else:
                # Pipe transport, cold shipment: compact in the parent.
                stream_spec = (
                    "view",
                    ShardSliceView.from_columns(
                        assignment,
                        weights,
                        idents,
                        handle.site_lo,
                        handle.site_hi,
                    ),
                    token,
                )
            payload = {
                "site_lo": handle.site_lo,
                "site_hi": handle.site_hi,
                "sites": network.sites[handle.site_lo : handle.site_hi],
                "n": n,
                "batch_size": self.batch_size,
                "initial_batch_size": self.initial_batch_size,
                "marks": marks,
                "stream": stream_spec,
                "pipeline": pipelined,
                # The parent's resolved kernel backend by name; workers
                # re-resolve with strict=False so a backend the worker
                # interpreter cannot import degrades to auto, not a
                # crash (the numpy tier is bit-identical anyway).
                "kernels": _active_kernels().name,
                # When truthy, workers append a flat telemetry column
                # (WORKER_METRIC_NAMES order) to result messages; when
                # falsy the wire shape is untouched.
                "metrics": bool(self.registry.enabled),
                "worker": handle.index,
                "supervised": supervisor is not None,
                "faults": (
                    supervisor.wire_faults(handle.index)
                    if supervisor is not None
                    else None
                ),
            }
            self._send(handle, ("run", payload))


    # -- the lockstep fold ---------------------------------------------

    def _run_windows(
        self,
        network,
        pool,
        n,
        marks,
        mark_set,
        on_step,
        on_checkpoint,
        supervisor=None,
    ) -> "MessageCounters":
        handles = pool["handles"]
        windows = list(
            batch_windows(n, self.batch_size, self.initial_batch_size, marks)
        )
        rollbacks = 0
        controls_total = 0
        wait_total = 0.0
        fold_total = 0.0
        per_window = []
        history: List[list] = []
        coordinator = network.coordinator
        counters = network.counters
        t_idx = 0
        attempt: Optional[_WindowAttempt] = None
        while t_idx < len(windows):
            lo, hi = windows[t_idx]
            snap = None
            if supervisor is not None:
                # Window-start snapshot of what the parent mutates
                # while folding; a mid-window fault rewinds to it.
                snap = (
                    coordinator.snapshot_state(),
                    counters.snapshot_state(),
                )
                if attempt is None or attempt.window != t_idx:
                    attempt = _WindowAttempt(t_idx)
                attempt.seen = 0
                attempt.folded = False
            guard = attempt if supervisor is not None else None
            attempt_rollbacks = 0
            try:
                t0 = time.perf_counter()
                pending = {}
                worker_deltas = []
                for handle in handles:
                    message = self._recv(handle, supervisor, t_idx)
                    for descriptor in message[1]:
                        pending[descriptor[0]] = (handle, descriptor)
                    if len(message) > 2 and message[2]:
                        worker_deltas.append((handle.index, message[2]))
                t1 = time.perf_counter()
                controls: List[Tuple[int, int, object]] = []
                order = sorted(pending)
                i = 0
                while i < len(order):
                    site_id = order[i]
                    handle, descriptor = pending.pop(site_id)
                    if guard is not None:
                        attempt.folded = True
                    responses = self._fold(
                        network,
                        site_id,
                        self._decode(handle, descriptor, t_idx),
                        guard,
                    )
                    if responses:
                        controls.extend(
                            (site_id, dest, message)
                            for dest, message in responses
                        )
                        needs_roll = any(
                            dest == BROADCAST or dest > site_id
                            for dest, _ in responses
                        )
                        affected = [
                            h for h in handles if h.site_hi - 1 > site_id
                        ]
                        if needs_roll and affected:
                            attempt_rollbacks += 1
                            for h in affected:
                                self._send(
                                    h, ("roll", site_id, controls), t_idx
                                )
                            for stale in [s for s in pending if s > site_id]:
                                del pending[stale]
                            for h in affected:
                                message = self._recv(h, supervisor, t_idx)
                                for descriptor in message[1]:
                                    pending[descriptor[0]] = (h, descriptor)
                                if len(message) > 2 and message[2]:
                                    worker_deltas.append(
                                        (h.index, message[2])
                                    )
                            order = order[: i + 1] + sorted(
                                s for s in pending if s > site_id
                            )
                    i += 1
            except _WorkerFault as fault:
                if supervisor is None:
                    raise
                self._recover_window(
                    supervisor, network, pool, t_idx, history, fault,
                    snap, attempt,
                )
                continue
            # Commit phase.  A fault here is NOT window-recoverable —
            # a worker that already received the com advances its sites
            # irreversibly — so it goes straight to the ladder.
            try:
                for handle in handles:
                    self._send(handle, ("com", controls), t_idx)
            except _WorkerFault as fault:
                if supervisor is None:
                    raise
                supervisor.record_fault(fault, t_idx)
                raise _LadderFault(fault) from None
            for worker, deltas in worker_deltas:
                merge_worker_deltas(self.registry, worker, deltas)
            t2 = time.perf_counter()
            rollbacks += attempt_rollbacks
            controls_total += len(controls)
            history.append(controls)
            wait_total += t1 - t0
            fold_total += t2 - t1
            per_window.append(
                {
                    "window": len(per_window),
                    "transport_wait_seconds": t1 - t0,
                    "parent_fold_seconds": t2 - t1,
                    "controls": len(controls),
                }
            )
            if supervisor is not None:
                supervisor.export_heartbeats()
            network.items_processed += hi - lo
            t = network.items_processed
            if on_step is not None:
                on_step(t)
            if hi in mark_set:
                on_checkpoint(t)
            t_idx += 1
        for handle in handles:
            self._send(handle, ("fin",))
        for handle in handles:
            message = self._recv(handle, supervisor)
            if message[0] != "sta":  # pragma: no cover - protocol bug guard
                raise ShardedWorkerError(
                    f"shard worker {handle.index} sent {message[0]!r} "
                    "instead of final state"
                )
            if len(message) > 3 and message[3]:
                merge_worker_deltas(self.registry, handle.index, message[3])
            for offset, final in enumerate(pickle.loads(message[2])):
                _adopt_site_state(network.sites[message[1] + offset], final)
        self.last_run_stats = {
            "mode": "sharded",
            "workers": pool["workers"],
            "transport": pool["transport"],
            "pipeline": "off",
            "windows": len(windows),
            "rollbacks": rollbacks,
            "controls": controls_total,
            "timing": {
                "transport_wait_seconds": wait_total,
                "parent_fold_seconds": fold_total,
            },
            "per_window": per_window,
            "shm_segments": [
                shm.name
                for shm in pool["rings"] + pool["stream"]["shms"]
            ],
        }
        return network.counters

    # -- window-boundary recovery (lockstep, supervised) ---------------

    def _recover_window(
        self, supervisor, network, pool, t_idx, history, fault, snap, attempt
    ) -> None:
        """Recover from one classified worker fault without losing the
        run: reap and respawn the dead shard's worker, fast-forward it
        through the committed windows, rewind the survivors (and the
        parent's coordinator/counters) to the window boundary, and let
        the window loop retry.  The retry is bit-identical to a
        fault-free run.  Raises :class:`_LadderFault` when recovery is
        out of budget or structurally impossible.
        """
        t_start = time.perf_counter()
        supervisor.record_fault(fault, t_idx)
        if supervisor.restarts >= supervisor.max_restarts:
            raise _LadderFault(fault) from None
        supervisor.restarts += 1
        if supervisor.checkpoint is None:
            # No run-start site states -> cannot rebuild the dead shard.
            raise _LadderFault(fault) from None
        if attempt.folded and snap[0] is None:
            # Partial folds reached a coordinator that cannot rewind.
            raise _LadderFault(fault) from None
        dead = fault.handle
        try:
            handle = self._respawn_worker(pool, dead, supervisor)
            self._redispatch_worker(pool, handle, t_idx, history, supervisor)
            for other in pool["handles"]:
                if other is not handle:
                    self._send(other, ("rwd", t_idx), t_idx)
            for other in pool["handles"]:
                if other is handle:
                    continue
                # Drain until the rewind confirmation; anything queued
                # before it (stale results of the faulted attempt) is
                # superseded by the resend that follows the rwdok.
                while True:
                    message = self._recv(other, supervisor, t_idx)
                    if message[0] == "rwdok":
                        break
        except _WorkerFault as exc:
            supervisor.record_fault(exc, t_idx)
            raise _LadderFault(exc) from None
        if attempt.folded:
            network.coordinator.restore_state(snap[0])
            network.counters.restore_state(snap[1])
        seconds = time.perf_counter() - t_start
        supervisor.recovery_seconds += seconds
        observe_recovery(self.registry, dead.index, seconds)
        # The respawned worker replays t_idx committed windows before
        # its first result lands: scale its first deadline with that.
        supervisor.boost[handle.index] = supervisor.timeout * (1 + t_idx)

    def _respawn_worker(self, pool, dead, supervisor):
        """Replace one reaped worker with a fresh process on the same
        pool slot (same index, same ring segment), with bounded retries
        and capped exponential backoff."""
        from multiprocessing import get_context

        _reap_handle(dead)
        ctx = get_context("spawn")
        delay = _RESPAWN_BACKOFF
        last_exc: Optional[BaseException] = None
        for _ in range(_RESPAWN_RETRIES):
            process = None
            try:
                if supervisor.take_respawn_failure(dead.index):
                    raise ShardedWorkerError(
                        f"injected respawn failure for worker {dead.index}"
                    )
                ring_spec = None
                if dead.ring is not None:
                    ring_spec = (dead.ring.name, pool["slot_bytes"])
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=({"ring": ring_spec}, child_conn),
                    daemon=True,
                    name=f"repro-shard-{dead.index}",
                )
                process.start()
                child_conn.close()
                if not parent_conn.poll(_READY_TIMEOUT):
                    raise ShardedWorkerError(
                        f"respawned shard worker {dead.index} not ready "
                        f"within {_READY_TIMEOUT:.0f}s"
                    )
                message = parent_conn.recv()
                if message[0] != "rdy":
                    raise ShardedWorkerError(
                        f"respawned shard worker {dead.index} sent "
                        f"{message[0]!r} instead of ready"
                    )
                handle = _WorkerHandle(
                    dead.index, process, parent_conn, dead.ring
                )
                handle.site_lo, handle.site_hi = dead.site_lo, dead.site_hi
                pool["handles"][dead.index] = handle
                return handle
            except Exception as exc:
                last_exc = exc
                if process is not None:
                    try:
                        process.terminate()
                        process.join(timeout=_JOIN_TIMEOUT)
                    except Exception:  # pragma: no cover - best effort
                        pass
                time.sleep(delay)
                delay = min(delay * 2, _RESPAWN_BACKOFF_CAP)
        raise _WorkerFault(
            dead,
            "crash",
            f"respawn failed after {_RESPAWN_RETRIES} attempts: {last_exc!r}",
        ) from last_exc

    def _redispatch_worker(
        self, pool, handle, resume, history, supervisor
    ) -> None:
        """Ship a respawned worker its shard, rebuilt for deterministic
        recovery: run-start site states (sliced from the supervisor's
        checkpoint), a fresh stream shipment (its cache died with the
        old process), and the committed control history to fast-forward
        through."""
        from ..stream.columns import ShardSliceView

        run = pool["run"]
        stream_info = pool["stream"]
        token = stream_info["token"]
        if stream_info.get("spec_full") is not None:
            stream_spec = stream_info["spec_full"]
        else:
            arrays = [ref() for ref in stream_info["refs"]]
            if any(array is None for array in arrays):
                raise _WorkerFault(
                    handle,
                    "crash",
                    "stream columns were collected; cannot re-ship the "
                    "shard to a respawned worker",
                )
            stream_spec = (
                "view",
                ShardSliceView.from_columns(
                    arrays[0],
                    arrays[1],
                    arrays[2],
                    handle.site_lo,
                    handle.site_hi,
                ),
                token,
            )
        sites = pickle.loads(supervisor.checkpoint["sites"])[
            handle.site_lo : handle.site_hi
        ]
        payload = {
            "site_lo": handle.site_lo,
            "site_hi": handle.site_hi,
            "sites": sites,
            "n": run["n"],
            "batch_size": self.batch_size,
            "initial_batch_size": self.initial_batch_size,
            "marks": run["marks"],
            "stream": stream_spec,
            "pipeline": False,
            "kernels": _active_kernels().name,
            "metrics": run["metrics"],
            "worker": handle.index,
            "supervised": True,
            "faults": supervisor.wire_faults(handle.index),
            "resume": resume,
            "history": list(history),
        }
        self._send(handle, ("run", payload))

    # -- the pipelined fold --------------------------------------------

    def _pump(self, inbox: _Inbox, supervisor=None, window=None) -> None:
        """Read and file exactly one worker message."""
        message = self._recv(inbox.handle, supervisor, window)
        tag = message[0]
        if tag == "res":
            inbox.res[message[1]] = message[2]
            inbox.secs[message[1]] = message[3]
            if len(message) > 4 and message[4]:
                # Telemetry from stale speculative sends is kept too:
                # the discarded compute was real work.
                inbox.deltas.append(message[4])
        elif tag == "ack":
            inbox.acks[message[1]] = message[2]
            if not message[2]:
                # Speculation missed: the buffered next-window result
                # is stale; the worker's recompute follows in the pipe.
                inbox.res.pop(message[1] + 1, None)
                inbox.secs.pop(message[1] + 1, None)
        elif tag == "rep":
            inbox.reps[message[1]] = message[2]
            if len(message) > 3 and message[3]:
                inbox.deltas.append(message[3])
        else:  # pragma: no cover - protocol bug guard
            raise ShardedWorkerError(
                f"shard worker {inbox.handle.index} sent unexpected {tag!r}"
            )

    def _run_windows_pipelined(
        self,
        network,
        pool,
        n,
        marks,
        mark_set,
        on_step,
        on_checkpoint,
        supervisor=None,
    ) -> "MessageCounters":
        handles = pool["handles"]
        inboxes = [_Inbox(handle) for handle in handles]
        windows = list(
            batch_windows(n, self.batch_size, self.initial_batch_size, marks)
        )
        # Arrival-order folds need a coordinator that can rewind; one
        # that cannot (snapshot_state() is None) still pipelines via
        # speculation and double buffering, with ordered folds only.
        async_folds = network.coordinator.snapshot_state() is not None
        st = {
            "rollbacks": 0,
            "controls": 0,
            "spec_hits": 0,
            "spec_misses": 0,
            "unordered_folds": 0,
            "ordered_refolds": 0,
            "worker_compute_seconds": 0.0,
            "transport_wait_seconds": 0.0,
            "parent_fold_seconds": 0.0,
            "per_window": [],
        }
        for u, (lo, hi) in enumerate(windows):
            controls = self._fold_window_pipelined(
                u, network, handles, inboxes, async_folds, st, supervisor
            )
            st["controls"] += len(controls)
            for inbox in inboxes:
                if inbox.deltas:
                    for deltas in inbox.deltas:
                        merge_worker_deltas(
                            self.registry, inbox.handle.index, deltas
                        )
                    inbox.deltas.clear()
            for handle in handles:
                self._send(handle, ("com", u, controls), u)
            if supervisor is not None:
                supervisor.export_heartbeats()
            network.items_processed += hi - lo
            t = network.items_processed
            if on_step is not None:
                on_step(t)
            if hi in mark_set:
                on_checkpoint(t)
        for handle in handles:
            self._send(handle, ("fin",))
        for inbox in inboxes:
            while True:
                message = self._recv(inbox.handle, supervisor)
                if message[0] == "ack":
                    # The final window's ack: no speculation existed
                    # behind it (there is no next window to compute).
                    continue
                if message[0] != "sta":  # pragma: no cover - bug guard
                    raise ShardedWorkerError(
                        f"shard worker {inbox.handle.index} sent "
                        f"{message[0]!r} instead of final state"
                    )
                break
            for deltas in inbox.deltas:
                merge_worker_deltas(self.registry, inbox.handle.index, deltas)
            inbox.deltas.clear()
            if len(message) > 3 and message[3]:
                merge_worker_deltas(
                    self.registry, inbox.handle.index, message[3]
                )
            for offset, final in enumerate(pickle.loads(message[2])):
                _adopt_site_state(network.sites[message[1] + offset], final)
        self.last_run_stats = {
            "mode": "sharded",
            "workers": pool["workers"],
            "transport": pool["transport"],
            "pipeline": "on",
            "async_folds": async_folds,
            "windows": len(windows),
            "rollbacks": st["rollbacks"],
            "controls": st["controls"],
            "speculation": {
                "hits": st["spec_hits"],
                "misses": st["spec_misses"],
            },
            "unordered_folds": st["unordered_folds"],
            "ordered_refolds": st["ordered_refolds"],
            "timing": {
                "worker_compute_seconds": st["worker_compute_seconds"],
                "transport_wait_seconds": st["transport_wait_seconds"],
                "parent_fold_seconds": st["parent_fold_seconds"],
            },
            "per_window": st["per_window"],
            "shm_segments": [
                shm.name
                for shm in pool["rings"] + pool["stream"]["shms"]
            ],
        }
        return network.counters

    def _fold_window_pipelined(
        self, u, network, handles, inboxes, async_folds, st, supervisor=None
    ):
        """Fold window ``u``: collect each worker's final descriptors,
        folding arrival-order-safe packs as they land, then finish the
        remainder in exact ascending-site order.  Returns the window's
        control list (what ``com`` broadcasts to the workers).

        Correctness of the overlap: unordered commits touch only
        coordinator-internal state and are order-invariant by the
        coordinator's own guards; the moment any ordered fold of the
        remainder emits a response after such a commit, the whole
        window rewinds to its start snapshot and refolds in exact
        order — nothing was delivered downstream before the rewind
        (the parent's site mirrors reject out-of-order epoch
        thresholds), so the replay is indistinguishable from lockstep.
        Rolls (clean path) and rewinds (dirty path) are mutually
        exclusive within a window.
        """
        from multiprocessing.connection import wait as _connection_wait

        coordinator = network.coordinator
        counters = network.counters
        coordinator_snapshot = counters_snapshot = None
        if async_folds:
            coordinator_snapshot = coordinator.snapshot_state()
            counters_snapshot = counters.snapshot_state()
        pending: dict = {}
        alldesc: dict = {}
        declined: set = set()
        dirty = False
        wait_seconds = 0.0
        fold_seconds = 0.0
        compute_seconds = 0.0
        unordered_before = st["unordered_folds"]
        remaining = set(range(len(handles)))
        while remaining:
            t0 = time.perf_counter()
            if supervisor is None:
                _connection_wait(
                    [inboxes[i].handle.conn for i in remaining]
                )
            else:
                deadline = max(
                    supervisor.deadline(inboxes[i].handle)
                    for i in remaining
                )
                ready = _connection_wait(
                    [inboxes[i].handle.conn for i in remaining],
                    timeout=deadline,
                )
                if not ready:
                    silent = sorted(remaining)
                    raise _WorkerFault(
                        inboxes[silent[0]].handle,
                        "hang",
                        f"no pipelined progress within {deadline:.1f}s "
                        f"(workers {silent} silent)",
                        window=u,
                    )
            wait_seconds += time.perf_counter() - t0
            for i in list(remaining):
                inbox = inboxes[i]
                while inbox.handle.conn.poll(0):
                    self._pump(inbox, supervisor, u)
                if u in inbox.res and (u == 0 or (u - 1) in inbox.acks):
                    if u > 0:
                        if inbox.acks.pop(u - 1):
                            st["spec_hits"] += 1
                        else:
                            st["spec_misses"] += 1
                    secs = inbox.secs.pop(u, 0.0)
                    if secs > compute_seconds:
                        compute_seconds = secs
                    for descriptor in inbox.res.pop(u):
                        pending[descriptor[0]] = (inbox.handle, descriptor)
                        alldesc[descriptor[0]] = (inbox.handle, descriptor)
                    remaining.discard(i)
            if async_folds and pending and remaining:
                # Overlap: fold order-invariant packs now, while the
                # remaining workers are still computing/shipping.
                t0 = time.perf_counter()
                for site_id in sorted(pending):
                    if site_id in declined:
                        continue
                    handle, descriptor = pending[site_id]
                    if descriptor[1] == "m":  # scalar lists fold ordered
                        declined.add(site_id)
                        continue
                    if self._fold_unordered(
                        network, site_id, handle, descriptor, u
                    ):
                        del pending[site_id]
                        dirty = True
                        st["unordered_folds"] += 1
                    else:
                        declined.add(site_id)
                fold_seconds += time.perf_counter() - t0
        t0 = time.perf_counter()
        if not dirty:
            controls = self._fold_ordered(
                u, network, handles, inboxes, pending, st, supervisor
            )
        else:
            # Out-of-order commits happened: finish the remainder with
            # *silent* ordered folds (count + fold, deliver nothing)
            # and rewind the whole window the moment one responds.
            controls = None
            for site_id in sorted(pending):
                handle, descriptor = pending[site_id]
                if self._fold_silent(
                    network, site_id, handle, descriptor, u
                ):
                    st["ordered_refolds"] += 1
                    coordinator.restore_state(coordinator_snapshot)
                    counters.restore_state(counters_snapshot)
                    controls = self._fold_ordered(
                        u, network, handles, inboxes, alldesc, st, supervisor
                    )
                    break
            if controls is None:
                controls = []
        fold_seconds += time.perf_counter() - t0
        st["worker_compute_seconds"] += compute_seconds
        st["transport_wait_seconds"] += wait_seconds
        st["parent_fold_seconds"] += fold_seconds
        st["per_window"].append(
            {
                "window": u,
                "worker_compute_seconds": compute_seconds,
                "transport_wait_seconds": wait_seconds,
                "parent_fold_seconds": fold_seconds,
                "unordered_folds": st["unordered_folds"] - unordered_before,
                "controls": len(controls),
            }
        )
        return controls

    def _fold_ordered(
        self, u, network, handles, inboxes, descriptors, st, supervisor=None
    ):
        """The lockstep fold body over the pipelined wire: ascending
        site order with the roll/replacement protocol (see
        :meth:`_run_windows`), reading replacements through the
        inboxes (speculative traffic may precede them in the pipe)."""
        pending = dict(descriptors)
        controls: List[Tuple[int, int, object]] = []
        order = sorted(pending)
        i = 0
        while i < len(order):
            site_id = order[i]
            handle, descriptor = pending.pop(site_id)
            responses = self._fold(
                network, site_id, self._decode(handle, descriptor, u)
            )
            if responses:
                controls.extend(
                    (site_id, dest, message) for dest, message in responses
                )
                needs_roll = any(
                    dest == BROADCAST or dest > site_id
                    for dest, _ in responses
                )
                affected = [h for h in handles if h.site_hi - 1 > site_id]
                if needs_roll and affected:
                    st["rollbacks"] += 1
                    for h in affected:
                        self._send(h, ("roll", u, site_id, controls), u)
                    for stale in [s for s in pending if s > site_id]:
                        del pending[stale]
                    for h in affected:
                        inbox = inboxes[h.index]
                        while u not in inbox.reps:
                            self._pump(inbox, supervisor, u)
                        for descriptor in inbox.reps.pop(u):
                            pending[descriptor[0]] = (h, descriptor)
                    order = order[: i + 1] + sorted(
                        s for s in pending if s > site_id
                    )
            i += 1
        return controls

    def _fold_unordered(
        self, network, site_id, handle, descriptor, window=None
    ) -> bool:
        """Attempt one arrival-order fold; True iff it committed.

        A method (not inline) so the decoded zero-copy ring view dies
        with this frame — a view bound in a frame captured by an error
        traceback would outlive the pool and block ring teardown.
        """
        payload = self._decode(handle, descriptor, window)
        if network.coordinator.on_message_pack_unordered(site_id, payload):
            network.counters.record_upstream_pack(payload)
            return True
        return False

    def _fold_silent(
        self, network, site_id, handle, descriptor, window=None
    ) -> bool:
        """Ordered fold that delivers nothing downstream; True iff the
        coordinator responded (the dirty window must then rewind).
        Frame-scoped for the same ring-view-lifetime reason as
        :meth:`_fold_unordered`.
        """
        coordinator = network.coordinator
        counters = network.counters
        payload = self._decode(handle, descriptor, window)
        if isinstance(payload, MessagePack):
            counters.record_upstream_pack(payload)
            return bool(coordinator.on_message_pack(site_id, payload))
        for message in payload:
            counters.record_upstream(message)
            if coordinator.on_message(site_id, message):
                return True
        return False

    def format_stats(self) -> str:
        """A human-readable breakdown of :attr:`last_run_stats` (used
        by ``repro ... --profile --engine sharded``)."""
        stats = self.last_run_stats
        if not stats:
            return "sharded engine: no run recorded yet"
        if stats.get("mode") == "degraded":
            return (
                f"sharded engine: degraded to the "
                f"{stats.get('rung', '?')} rung "
                f"({stats.get('reason', 'unknown reason')}); "
                f"{len(stats.get('faults', ()))} faults logged"
            )
        if stats.get("mode") != "sharded":
            return (
                f"sharded engine: ran in fallback mode "
                f"({stats.get('reason', 'unknown reason')})"
            )
        lines = [
            (
                f"sharded engine breakdown (pipeline "
                f"{stats.get('pipeline', '?')}, {stats['workers']} workers, "
                f"{stats['transport']} transport):"
            ),
            (
                f"  windows {stats['windows']}, rollbacks "
                f"{stats['rollbacks']}, controls {stats['controls']}"
            ),
        ]
        spec = stats.get("speculation")
        if spec is not None:
            lines.append(
                f"  speculation: {spec['hits']} hits, {spec['misses']} misses"
            )
        if "unordered_folds" in stats:
            lines.append(
                f"  async folds: {stats['unordered_folds']} packs out of "
                f"order, {stats['ordered_refolds']} window refolds"
            )
        timing = stats.get("timing")
        if timing is not None:
            parts = []
            for label, key in (
                ("worker compute", "worker_compute_seconds"),
                ("transport wait", "transport_wait_seconds"),
                ("parent fold", "parent_fold_seconds"),
            ):
                if key in timing:
                    parts.append(f"{label} {timing[key]:.3f}s")
            lines.append("  time: " + ", ".join(parts))
        if stats.get("faults"):
            lines.append(
                f"  faults: {len(stats['faults'])} classified, "
                f"{stats.get('worker_restarts', 0)} worker restarts, "
                f"recovery {stats.get('recovery_seconds', 0.0):.3f}s"
            )
        if "degraded_to" in stats:
            lines.append(
                f"  degraded: {stats.get('degraded_from', '?')} -> "
                f"{stats['degraded_to']}"
            )
        if "kernels" in stats:
            lines.append(f"  kernels: {stats['kernels']} backend")
        return "\n".join(lines)

    @staticmethod
    def _send(handle, message, window=None) -> None:
        """Send a command to a worker; a dead pipe raises a classified
        ``crash`` :class:`_WorkerFault` (the supervised paths recover
        or degrade; unsupervised boundaries convert it to
        :class:`ShardedWorkerError` via ``to_error``)."""
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerFault(
                handle,
                "crash",
                f"pipe closed mid-send "
                f"(exitcode {handle.process.exitcode}): {exc!r}",
                window=window,
            ) from None

    def _recv(self, handle, supervisor=None, window=None):
        """Receive one worker message; classify failures.

        With a supervisor the receive is deadline-bounded (``hang``
        fault on expiry) and stamps the worker's heartbeat.  A dead
        pipe is a ``crash`` fault either way; a worker-shipped
        traceback is fail-stop (:class:`ShardedWorkerError` with
        ``fault_class="error"``) — the worker's own code raised, and
        deterministic replay would just raise it again.
        """
        if supervisor is not None:
            deadline = supervisor.deadline(handle)
            if not handle.conn.poll(deadline):
                raise _WorkerFault(
                    handle,
                    "hang",
                    f"no message within {deadline:.1f}s "
                    f"(process alive: {handle.process.is_alive()})",
                    window=window,
                )
        try:
            message = handle.conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerFault(
                handle,
                "crash",
                f"exited unexpectedly "
                f"(exitcode {handle.process.exitcode}): {exc!r}",
                window=window,
            ) from None
        if message[0] == "err":
            raise ShardedWorkerError.from_fault(
                handle,
                "error",
                f"worker raised; original traceback:\n{message[1]}",
                window=window,
                worker_traceback=message[1],
            )
        if supervisor is not None:
            supervisor.heartbeat(handle)
        return message

    def _decode(self, handle, descriptor, window=None):
        """Rebuild one site's window payload from its wire descriptor.

        All three wire forms are validated at this boundary
        (:class:`~repro.net.messages.PackWireError` and friends); a
        malformed descriptor is classified as a ``poison``
        :class:`_WorkerFault` instead of crashing the coordinator fold.
        """
        try:
            tag = descriptor[1]
            if tag == "m":
                payload = descriptor[2]
                if not isinstance(payload, list):
                    raise PackWireError(
                        f"scalar descriptor carries "
                        f"{type(payload).__name__}, not a message list"
                    )
                return payload
            if tag == "q":
                return MessagePack.from_arrays(descriptor[2], descriptor[3])
            if tag == "p":
                return MessagePack.read_from(
                    handle.ring.buf, descriptor[2], descriptor[3]
                )
            raise PackWireError(f"unknown descriptor tag {tag!r}")
        except (
            ValueError,
            TypeError,
            KeyError,
            IndexError,
            AttributeError,
        ) as exc:
            raise _WorkerFault(
                handle,
                "poison",
                f"undecodable pack descriptor: {exc}",
                window=window,
            ) from None

    @staticmethod
    def _fold(network, site_id: int, payload, attempt=None):
        """Deliver one site's window output to the coordinator, exactly
        as :meth:`Network.deliver_pack` / ``deliver_upstream`` would
        (same counter calls, same response fan-out), but returning the
        coordinator's responses so the window loop can see broadcasts.
        Only called on uninstrumented networks (checked at ``run``
        start), where this *is* the delivery path, verbatim.
        ``attempt`` (supervised lockstep only) guards downstream
        deliveries across window-recovery refolds.
        """
        counters = network.counters
        coordinator = network.coordinator
        if isinstance(payload, MessagePack):
            if len(payload) == 0:  # pragma: no cover - filtered at encode
                return []
            counters.record_upstream_pack(payload)
            responses = coordinator.on_message_pack(site_id, payload)
            for dest, response in responses:
                _deliver_guarded(network, attempt, dest, response)
            return responses
        out = []
        for message in payload:
            counters.record_upstream(message)
            responses = coordinator.on_message(site_id, message)
            for dest, response in responses:
                _deliver_guarded(network, attempt, dest, response)
            out.extend(responses)
        return out


def _columns_to_shm(assignment, weights, idents):
    """Copy the full stream columns into one shared-memory segment
    (a single parent-side memcpy, attached by every worker); returns
    ``((name, column_spec), segment)``."""
    columns = {
        "assignment": assignment,
        "weights": weights,
        "idents": idents,
    }
    total = sum(array.nbytes for array in columns.values())
    shm = _shared_memory.SharedMemory(create=True, size=max(1, total))
    target = memoryview(shm.buf)
    spec = {}
    offset = 0
    for name, array in columns.items():
        array = _np.ascontiguousarray(array)
        nbytes = array.nbytes
        target[offset : offset + nbytes] = memoryview(array).cast("B")
        spec[name] = (offset, array.dtype.str, len(array))
        offset += nbytes
    return (shm.name, spec), shm


def _network_instrumented(network) -> bool:
    """Mirror :meth:`Network.deliver_pack`'s tracing check: wrapped or
    overridden delivery methods mean an observer wants to see every
    message in causal order — the sharded fold would bypass it, so the
    engine falls back to the in-process columnar path instead."""
    from .network import (
        _BASE_DELIVER_DOWNSTREAM,
        _BASE_DELIVER_UPSTREAM,
        Network,
    )

    cls = type(network)
    return (
        "deliver_upstream" in network.__dict__
        or "deliver_downstream" in network.__dict__
        or "deliver_pack" in network.__dict__
        or cls.deliver_upstream is not _BASE_DELIVER_UPSTREAM
        or cls.deliver_downstream is not _BASE_DELIVER_DOWNSTREAM
        or cls.deliver_pack is not Network.deliver_pack
    )
