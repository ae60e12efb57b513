"""The sharded engine: shard-parallel site passes in worker processes.

The paper's protocols are distributed by construction — sites compute
independently and only exchange O(1)-word messages with the coordinator
— yet every other engine runs all ``k`` sites in one interpreter.
:class:`ShardedEngine` partitions the sites into contiguous shards, one
worker *process* per shard, and keeps only the coordinator (plus the
message accounting) in the parent:

* each worker owns its shard's protocol sites and a compacted
  :class:`~repro.stream.columns.ShardSliceView` of the stream columns,
  which it compacts itself out of one :mod:`multiprocessing.shared_memory`
  segment holding the full columns (shipped once per run);
* per batch window the worker runs the same per-site grouping and
  ``on_columns`` site pass the columnar engine would, and ships each
  (site, batch) :class:`~repro.net.messages.MessagePack` back as flat
  columns through a per-worker shared-memory ring the parent reads
  zero-copy — a pack too large for its ring slot goes inline, pickled
  over the worker's pipe
  (:meth:`~repro.net.messages.MessagePack.to_arrays`);
* the parent delivers the packs through the network
  (:meth:`~repro.runtime.network.Network.deliver_pack`), so the
  **same** coordinator bulk path
  (:meth:`~repro.runtime.interfaces.CoordinatorAlgorithm.on_message_pack`)
  folds them in the **same** deterministic ascending-(batch, site)
  order the columnar engine uses, with identical counter accounting.

Workers are spawned once per engine instance and *reused* across
``run()`` calls (each run re-ships the site states and stream shard),
so a long-lived engine amortizes process start-up away — the regime the
"saturate all cores at 100M+ items" target actually cares about.  Call
:meth:`ShardedEngine.close` to tear the pool down eagerly; a dropped
engine cleans up via ``weakref.finalize``.

Why this is bit-identical to the columnar engine
------------------------------------------------
Each site draws from its own generator
(:meth:`~repro.common.rng.RandomSource.generator`, one per actor),
each site's per-window ident/weight slices are bitwise equal to the
columnar engine's (the same order-preserving grouping over a
position-compacted shard — see ``ShardSliceView``), and the
coordinator runs *in the parent*, drawing from its own generator in
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

One snapshot mechanism
----------------------
Every rewind and every transplant of protocol state goes through
:meth:`~repro.runtime.interfaces.SiteAlgorithm.snapshot_state` /
``restore_state``, at three points: a worker snapshots each of its
sites before every window (a roll rewinds just the suffix sites, a
missed speculation the whole shard); the run-start checkpoint that
every engine's run takes
(:meth:`~repro.runtime.network.Network.snapshot_state`) holds every
site's and the coordinator's snapshot; and at run end each worker ships
its sites' snapshots in ``sta``, from which the parent restores its own
sites.  Restores happen in place, so whatever holds a site or the
coordinator — the network, the protocol facade — keeps seeing its
state.  Protocol sites snapshot a few values (their RNG states,
control view and counters); any other site takes the interface
default, which pickles its attributes.

Speculative windows
-------------------
Lockstep would leave every worker idle while the parent folds.  The
coordinator broadcasts only when the threshold crosses an epoch or a
level saturates, which is logarithmically rare, so a worker does not
wait: after shipping window ``t`` it snapshots its sites and computes
window ``t + 1`` into the other half of its shared-memory ring (window
``t`` encodes into slot ``t % 2`` via
:meth:`~repro.net.messages.MessagePack.write_into`, so the parent's
zero-copy views into ``t``'s slot stay intact).  The speculation is
worker-local; the wire stays lockstep's::

    worker                                 parent
      res(t) ----------------------------->  fold t
      [computes t+1 into slot (t+1) % 2]       |
      <----------------------------- com(t, controls)
      hit:  ship the held t+1 ------------>  fold t+1
      miss: restore, apply, recompute t+1 -> fold t+1

The worker decides the verdict itself: a *hit* iff no control in the
commit targets one of its sites (neither a broadcast nor a message to
a site in its range), so applying the commit is a no-op and the held
packs are final.  On a *miss* it restores the speculation's snapshot,
applies the commit and recomputes ``t + 1``.  A speculation that raises
is held as a miss: a site may fail only on its stale pre-commit state,
so the error ships, in place of ``res(t + 1)``, only if the recompute
on the committed state raises too.  A ``roll`` of window
``t`` discards the speculation the same way and blocks re-speculation
until ``com(t)``, preserving the roll's invariant that prefix sites
keep their state.

Every window folds through one method (:meth:`ShardedEngine._fold_window`),
in exact ascending-site order: the parent makes the columnar engine's
coordinator calls, in the columnar engine's order.

``last_run_stats`` records rollback counts, the workers' summed
speculation hits/misses, the run's ``setup_seconds`` (getting the pool
and shipping each worker its shard), a per-window timing breakdown
(worker compute, transport wait, parent fold) and per-worker rows; the
parent counts every figure from the messages it already exchanges: the
seconds in each ``res`` (a worker's pre-window snapshot and site pass,
or a roll's restore and recompute), the descriptors it decodes, the
``roll``s it sends and the verdicts in each ``sta``.  So the wire has
one shape with a metrics registry attached or not.
``repro ... --profile --engine sharded`` prints the record.

Fault tolerance: supervision and degradation
--------------------------------------------
Every sharded run is supervised.  Each worker receive waits at most
``worker_timeout`` seconds, and every worker fault raises one
:class:`ShardedWorkerError`, classified: silence past the deadline is
a **hang**, a dead pipe or process exit a **crash**, a descriptor
rejected by the wire validation in :mod:`repro.net.messages`
**poison**, and a traceback the worker shipped an **error**.  The
engine's replay catches the error in one place: it reaps the faulted
worker and closes the pool, and the run's record logs the fault in
``last_run_stats["faults"]`` (a run logs one fault: the first ends the
sharded attempt).  A crash, hang or poison then restores the network
to its run-start checkpoint and finishes the run on the in-process
columnar engine (``mode="degraded"``, ``degraded_to="columnar"``).
The rerun is bit-identical to a fault-free run — samples **and**
message counters — and keeps its window schedule, so it forwards only
the ``on_step`` / ``on_checkpoint`` calls past the windows the sharded
attempt already reported.  An error, whose deterministic user-code
exception a rerun would raise again, and any fault of a run without a
checkpoint (an actor whose snapshot does not pickle) propagate to the
run lifecycle (:meth:`~repro.runtime.base.Engine.run`), which, as for
any failed run under any engine, restores the run-start checkpoint —
after the pool teardown — records ``mode="failed"`` with the fault's
``reason`` and ``faults`` row, and re-raises the error.  The engine's
next run spawns a fresh pool.  The chaos seams threaded through the worker
loop (:mod:`repro.faults`) inject crashes, hangs, drops and
corrupt/truncated packs deterministically; ``tests/test_chaos.py``
drives them across a worker/window grid and asserts bit-identical
degradation — never a hang, leaked process, or leaked shared-memory
segment.

Fallbacks: ``workers=1`` (or one site), instrumented networks (a
:class:`~repro.net.tracing.MessageTrace` wrapping the delivery
methods), sites that declare themselves non-shardable
(:attr:`~repro.runtime.interfaces.SiteAlgorithm.shardable`), and any
worker-setup failure (spawn unavailable, unpicklable sites, a host
without :mod:`multiprocessing.shared_memory`) all run the in-process
:class:`ColumnarEngine` path instead, so
the engine is always safe to select; ``last_run_stats`` records which
mode ran.  A stream whose identifiers are not int64-representable
raises :class:`~repro.common.errors.ConfigurationError` before any site
runs, as under the columnar engine.  A worker applies no control
between two messages of one site's window, so a site whose scalar
path yields its messages lazily — each one delivered, and its
broadcasts applied, before the next is drawn (the L1 site) — must
declare itself non-shardable, and runs in-process.
"""

from __future__ import annotations

import os
import time
import traceback
import weakref
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as _np

try:  # missing on exotic builds: every run then falls back in-process
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
from ..net.messages import MessagePack, PackWireError
from .batched import DEFAULT_BATCH_SIZE, batch_windows
from .columnar import (
    ColumnarEngine,
    group_window,
    shares_window_pass,
    site_results,
)
from .interfaces import BROADCAST

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .network import Network

__all__ = [
    "ShardedEngine",
    "ShardedWorkerError",
    "available_cpus",
]

#: Floor for the per-worker result ring (one window's packs always fit
#: unless the batch is enormous; oversized windows fall back to inline
#: pickling per pack, never to failure).
_MIN_RING_BYTES = 1 << 20

#: Seconds to wait for a spawned worker's ready message before treating
#: setup as failed (and falling back in-process).
_READY_TIMEOUT = 120.0

#: Default per-message deadline (seconds of worker silence before the
#: parent classifies a hang).  Generous: a deadline only has to beat
#: "forever", not a window compute.
_DEFAULT_WORKER_TIMEOUT = 60.0

#: Seconds to wait for a politely-asked worker to exit before force.
_JOIN_TIMEOUT = 5.0


def available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the
    platform exposes one (a ``taskset``-pinned or cgroup-limited
    process sees fewer than ``os.cpu_count()``), else the machine's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platform-dependent
        return os.cpu_count() or 1


class ShardedWorkerError(RuntimeError):
    """A shard worker died, hung, raised, or sent a malformed pack.

    Every worker fault of a run raises this, and the run's record
    logs it; it reaches the caller when
    the run cannot degrade: a worker that raised
    (``fault_class="error"``), or any fault of a run without a
    run-start checkpoint.  The parent raises it after the worker pool
    is torn down (processes joined or killed, shared-memory segments
    unlinked), so a failing site never leaks orphans.  Structured
    context rides along for programmatic handling:

    ``worker``
        The worker's pool index, or None when no single worker is at
        fault (setup failures).
    ``shard``
        The worker's ``(site_lo, site_hi)`` site range.
    ``window``
        The batch-window index being folded when the fault surfaced
        (None outside the window loop).
    ``fault_class``
        The parent's classification: ``"crash"`` (process exit / dead
        pipe), ``"hang"`` (deadline missed), ``"poison"`` (malformed
        pack rejected by wire validation), or ``"error"`` (the worker
        shipped its own traceback).
    ``detail``
        What the parent saw, the message's text after the class.
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
        detail: Optional[str] = None,
    ):
        super().__init__(message)
        self.worker_traceback = worker_traceback
        self.worker = worker
        self.shard = shard
        self.window = window
        self.fault_class = fault_class
        self.detail = detail

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
            detail=detail,
        )


def _worker_error(handle, worker_traceback: str, window=None) -> ShardedWorkerError:
    """The fail-stop error for a traceback a worker shipped (``err``)."""
    return ShardedWorkerError.from_fault(
        handle,
        "error",
        f"worker raised; original traceback:\n{worker_traceback}",
        window=window,
        worker_traceback=worker_traceback,
    )


def _queued_traceback(handle) -> Optional[str]:
    """The traceback a worker queued (``err``) before its pipe closed,
    if any — read after a failed send, before classifying a crash."""
    try:
        while handle.conn.poll(0):
            message = handle.conn.recv()
            if message[0] == "err":
                return message[1]
    except (EOFError, OSError):
        pass
    return None


def _attach_shm(name: str):
    """Attach an existing shared-memory segment.

    Ownership stays with the parent (which unlinks at shutdown); the
    resource tracker is shared across the spawn tree and de-duplicates
    the attach-side registration, so no unregister gymnastics are
    needed here.
    """
    return _shared_memory.SharedMemory(name=name)


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

    The ring is divided into two equal slots; window ``t`` encodes into
    slot ``t % 2``, so the speculative window ``t + 1`` never touches
    the slot the parent is still reading.
    """

    def __init__(self, payload, ring, slot_bytes, stream_cache) -> None:
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
        else:  # "full": compact this shard out of the shared columns
            view = _view_from_full_shm(
                stream[1], stream[2], self.site_lo, self.site_hi
            )
            stream_cache.clear()
            stream_cache["token"] = stream[3]
            stream_cache["view"] = view
            self.view = view
        self.ring = ring
        self.slot_bytes = slot_bytes
        self.ring_view = memoryview(ring.buf)
        self.ring_off = 0
        self.ring_limit = slot_bytes
        self.windows = list(
            batch_windows(payload["n"], payload["batch_size"], payload["marks"])
        )
        #: Chaos seams: planned ``(kind, window)`` faults for this
        #: worker (test-only; empty in production).
        self.faults = payload["faults"]
        #: Speculation verdicts, shipped with the final state.
        self.hits = 0
        self.misses = 0

    def compute_window(
        self,
        lo: int,
        hi: int,
        min_site: Optional[int] = None,
        slot: int = 0,
    ):
        """Run the shard's site passes for global window ``[lo, hi)``.

        Mirrors the columnar engine's per-site results exactly:
        ascending site ids, per-site slices in global arrival order,
        over the shard's rows of the window grouped by the engine's own
        :func:`~repro.runtime.columnar.group_window`.  When every
        shard site shares class and config, one window pass
        (:meth:`~repro.core.site.SworSite.prepare_window`) draws every
        run's keys, and its window pack is cut back into per-site
        results (:meth:`~repro.core.site._WindowPrep.run_packs`).
        The worker applies no control mid-compute, so the pass equals
        the per-site ``on_columns`` calls; it needs no saturation
        check, since the parent's fold rolls back the sites after any
        control.  The pass's draws and counters are site state, so the
        pre-window snapshots that speculation misses and rollbacks
        restore cover them.

        ``min_site`` restricts the compute to sites with a *larger*
        id — the rollback suffix, whose sites have taken some of the
        window's controls — and runs each of them through the per-site
        loop (:func:`~repro.runtime.columnar.site_results`).  ``slot``
        selects which ring slot the window's packs encode into
        (``t % 2`` for window ``t``).
        """
        view = self.view
        i0, i1 = view.window_bounds(lo, hi)
        if i0 == i1:
            return []
        window = group_window(view.sites, view.idents, view.weights, i0, i1)
        site_lo = self.site_lo
        runs = [
            (site_id, self.sites[site_id - site_lo], start, end)
            for site_id, start, end in zip(window.site_ids, window.starts, window.ends)
            if min_site is None or site_id > min_site
        ]
        window_prep = None
        if min_site is None and shares_window_pass(self.sites):
            window_prep = self.sites[0].prepare_window(window, runs)
        if window_prep is not None:
            results = window_prep.run_packs(runs)
        else:
            results = site_results(runs, window)
        self.ring_off = slot * self.slot_bytes
        self.ring_limit = self.ring_off + self.slot_bytes
        out = []
        for site_id, result in results:
            descriptor = self._encode(site_id, result)
            if descriptor is not None:
                out.append(descriptor)
        return out

    def _encode(self, site_id: int, result):
        """Serialize one site's window result for the pipe/ring.

        Packs go as flat columns — into the shared-memory ring when
        they fit (the parent rebuilds zero-copy views), inline over the
        pipe otherwise; scalar fallbacks (single-item site batches) go
        as pickled message lists, materialized here because a lazy
        iterator cannot cross the process boundary.
        """
        if isinstance(result, MessagePack):
            if len(result) == 0:
                return None
            encoded = result.write_into(
                self.ring_view, self.ring_off, self.ring_limit
            )
            if encoded is not None:
                kind, spec, self.ring_off = encoded
                return (site_id, "p", kind, spec)
            kind, columns = result.to_arrays()
            return (site_id, "q", kind, columns)
        messages = list(result)
        if not messages:
            return None
        return (site_id, "m", messages)

    def close(self) -> None:
        """Release this run's ring cursor (the cached view persists so
        the next run over the same stream skips the compaction)."""
        self.ring_view = None
        self.view = None


def _apply_commit(shard: _WorkerShard, applied, controls) -> None:
    """Commit a window: apply the controls each site has not seen yet."""
    for idx, site in enumerate(shard.sites):
        for _, dest, ctrl in controls[applied[idx] :]:
            if dest == BROADCAST or dest == shard.site_lo + idx:
                site.on_control(ctrl)


def _apply_roll(
    shard: _WorkerShard, lo, hi, snapshot, applied, from_site, controls, slot
):
    """Serve one rollback for window ``[lo, hi)``; return replacement
    descriptors for the invalidated suffix (sites after ``from_site``),
    encoded into ring ``slot``.

    Each suffix site rewinds to its pre-window state in ``snapshot``,
    takes every control of the window so far (each was triggered at or
    before ``from_site``, so before the site) and recomputes; prefix
    sites keep their state and their already-folded packs.
    ``applied``, the window's per-site control cursor, is updated in
    place across repeated rolls of the same window.
    """
    for idx, site in enumerate(shard.sites):
        site_id = shard.site_lo + idx
        if site_id <= from_site:
            continue
        site.restore_state(snapshot[idx])
        for _, dest, ctrl in controls:
            if dest == BROADCAST or dest == site_id:
                site.on_control(ctrl)
        applied[idx] = len(controls)
    return shard.compute_window(lo, hi, min_site=from_site, slot=slot)


def _send_state(shard: _WorkerShard, conn) -> None:
    """Ship the shard's final site snapshots and speculation verdicts."""
    conn.send(
        (
            "sta",
            shard.site_lo,
            [site.snapshot_state() for site in shard.sites],
            (shard.hits, shard.misses),
        )
    )


def _send_results(shard: _WorkerShard, conn, t: int, results, seconds) -> None:
    """Ship one window's descriptors and the worker seconds that
    produced them (snapshot and compute), through the chaos seams: a
    planned wire fault mangles the descriptors; a planned process fault
    kills/hangs/drops instead of sending.  With no plan (every
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
    conn.send(("res", results, seconds))


def _compute(shard: _WorkerShard, t: int, speculative: bool = False):
    """Snapshot the shard's sites, then compute window ``t`` into ring
    slot ``t % 2``.  Returns ``(snapshot, descriptors, seconds)``:
    ``seconds`` covers the snapshot and the compute, all of the
    worker's work for the window before it ships.

    A *speculative* compute runs before the commit of window ``t - 1``
    reaches the sites, so a site may raise only because its state is
    stale.  Such a failure is held, as ``descriptors`` ``None``: the
    commit counts it as a miss and recomputes the window on the
    committed state, and only a raise there ships the error."""
    lo, hi = shard.windows[t]
    t0 = time.perf_counter()
    # Pre-window state, captured BEFORE the compute so a rollback or a
    # missed speculation replays from exactly this point (same RNG
    # positions).
    snapshot = [site.snapshot_state() for site in shard.sites]
    try:
        results = shard.compute_window(lo, hi, slot=t % 2)
    except Exception:
        if not speculative:
            raise
        results = None
    return snapshot, results, time.perf_counter() - t0


def _discard(shard: _WorkerShard, spec) -> None:
    """Throw a speculative window away (a miss): rewind the sites to
    its snapshot."""
    for site, state in zip(shard.sites, spec[0]):
        site.restore_state(state)
    shard.misses += 1


def _worker_run(shard: _WorkerShard, conn) -> None:
    """The window protocol, worker side, for one run.

    Per window: send the descriptors computed against the
    last-committed control state, with the seconds its snapshot and
    compute took, then speculate — compute window ``t + 1`` into the
    other ring slot — and serve ``roll`` (restore the pre-window
    snapshot, re-apply each control message to exactly the sites after
    its trigger, recompute, resend the suffix) until the parent
    ``com``mits.  At commit every
    site applies the control messages it has not seen yet.  The
    speculation is a *hit* when none of them reaches this shard (its
    packs then ship as they are) and a *miss* otherwise (restored, and
    recomputed as the next window).  A speculation that raised is a
    miss too, so its error ships only if the recompute raises again,
    in place of that window's results.  A roll discards the
    speculation (a held error with it) and none is made again before
    the commit.
    """
    total = len(shard.windows)
    spec = None
    for t in range(total):
        lo, hi = shard.windows[t]
        if spec is None:
            spec = _compute(shard, t)
        snapshot, results, seconds = spec
        _send_results(shard, conn, t, results, seconds)
        spec = None
        if t + 1 < total:
            spec = _compute(shard, t + 1, speculative=True)
        applied = [0] * len(shard.sites)
        while True:
            message = conn.recv()
            tag = message[0]
            t0 = time.perf_counter()
            if tag == "com":
                controls = message[1]
                if spec is not None:
                    if spec[1] is None or any(
                        dest == BROADCAST
                        or shard.site_lo <= dest < shard.site_hi
                        for _, dest, _ in controls
                    ):
                        _discard(shard, spec)
                        spec = None
                    else:
                        shard.hits += 1
                _apply_commit(shard, applied, controls)
                break
            if tag != "roll":
                raise ProtocolViolationError(
                    f"shard worker got unexpected command {tag!r}"
                )
            if spec is not None:
                # A roll invalidates the speculation.
                _discard(shard, spec)
                spec = None
            from_site, controls = message[1], message[2]
            replacements = _apply_roll(
                shard, lo, hi, snapshot, applied, from_site, controls, t % 2
            )
            _send_results(
                shard, conn, t, replacements, time.perf_counter() - t0
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
        ring_name, slot_bytes = boot["ring"]
        ring = _attach_shm(ring_name)
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
    the pipe, then terminate -> kill, so the pool shutdown that follows
    does not wait out its join timeout.  Its ring segment is unlinked
    with the rest of the pool's."""
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
    flag (a failed spawn may have called it before ``close()`` does),
    and the shared-memory unlink runs in a ``finally`` so ``/dev/shm``
    segments are released even when a worker refuses to die within the
    join timeouts.
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


def _fault_fields(error: "ShardedWorkerError") -> dict:
    """The record's ``reason`` and ``faults`` row for a worker fault.
    One line: a worker traceback's last line names its exception; every
    other detail is one line."""
    return {
        "reason": (
            f"worker {error.fault_class} fault: "
            f"{error.detail.splitlines()[-1]}"
        ),
        "faults": [
            {
                "worker": error.worker,
                "window": error.window,
                "fault_class": error.fault_class,
                "detail": error.detail,
            }
        ],
    }


def _after(callback, reported):
    """``callback`` restricted to ``t > reported``: the degraded rerun
    fires again at every ``t`` the sharded attempt already reported."""
    if callback is None:
        return None
    return lambda t: callback(t) if t > reported else None


class ShardedEngine(ColumnarEngine):
    """Columnar data plane, shard-parallel site passes.

    Parameters
    ----------
    batch_size:
        The batch schedule, exactly as in
        :class:`~repro.runtime.columnar.ColumnarEngine` (the schedules
        must coincide for the bit-parity contract to be structural).
        Larger batches amortize the per-window worker round trip.
    workers:
        Worker process count; defaults to the CPUs this process may run
        on (:func:`available_cpus`).  Clamped to the site count; ``1``
        runs the in-process columnar path.  Stream columns and result
        packs move through shared memory; commands, controls and
        oversized packs through each worker's pipe.
    worker_timeout:
        Supervision deadline in seconds: how long a worker may stay
        silent while the parent waits on it before the parent
        classifies a hang.  Defaults to 60s.
    fault_plan:
        Chaos injection (testing only): a :class:`~repro.faults.FaultPlan`
        or its ``"kind:worker:window,..."`` string form, fired afresh
        every run; ``None`` (production) leaves every seam inert.
    """

    name = "sharded"

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        workers: Optional[int] = None,
        worker_timeout: Optional[float] = None,
        fault_plan=None,
    ) -> None:
        super().__init__(batch_size=batch_size)
        if workers is None:
            workers = available_cpus()
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if worker_timeout is None:
            worker_timeout = _DEFAULT_WORKER_TIMEOUT
        if worker_timeout <= 0:
            raise ConfigurationError(
                f"worker_timeout must be > 0, got {worker_timeout}"
            )
        if isinstance(fault_plan, str):
            fault_plan = parse_fault_plan(fault_plan)
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise ConfigurationError(
                f"fault_plan must be a FaultPlan or its string form, "
                f"got {fault_plan!r}"
            )
        self.workers = int(workers)
        self.worker_timeout = float(worker_timeout)
        self.fault_plan = fault_plan
        self._pool = None
        self._finalizer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine(batch_size={self.batch_size}, "
            f"workers={self.workers})"
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

    def _replay(
        self, network: "Network", stream, on_step, marks, on_checkpoint, checkpoint
    ) -> dict:
        arrays = stream.arrays()
        n = len(stream)
        workers = max(1, min(self.workers, network.num_sites))
        reason = None
        if n == 0:
            reason = "empty stream"
        elif workers < 2:
            reason = "single worker"
        elif network.delivery_instrumented():
            reason = "network delivery is instrumented"
        elif not all(
            getattr(site, "shardable", True) for site in network.sites
        ):
            reason = "non-shardable site"
        else:
            try:
                t_setup = time.perf_counter()
                pool, warm = self._get_pool(workers)
                self._dispatch_run(pool, network, arrays, n, marks)
                setup = time.perf_counter() - t_setup
            except Exception as exc:
                self.close()
                reason = f"worker setup failed: {exc!r}"
        if reason is not None:
            return {
                "mode": "fallback",
                "reason": reason,
                **super()._replay(
                    network, stream, on_step, marks, on_checkpoint, checkpoint
                ),
            }
        try:
            fields = self._run_windows(
                network, pool, n, marks, on_step, on_checkpoint
            )
        except ShardedWorkerError as error:
            # The one fault path.  The pool's protocol state is unknown
            # after a fault, so it is never reused.
            _reap_handle(pool["handles"][error.worker])
            self.close()
            if error.fault_class == "error" or checkpoint is None:
                raise  # the run lifecycle rewinds and records it
            # Restore the run-start checkpoint and rerun on the
            # in-process columnar engine.  The rerun is bit-identical
            # and keeps the window schedule, so it forwards only the
            # callbacks past the windows the sharded attempt already
            # reported.
            reported = network.items_processed
            network.restore_state(checkpoint)
            fault = _fault_fields(error)
            return {
                "mode": "degraded",
                "reason": fault["reason"],
                "degraded_to": "columnar",
                **super()._replay(
                    network,
                    stream,
                    _after(on_step, reported),
                    marks,
                    _after(on_checkpoint, reported),
                    checkpoint,
                ),
                "faults": fault["faults"],
            }
        except BaseException:
            # Interrupted mid-protocol: never reuse the pool.  Teardown
            # also reaps any orphans.
            self.close()
            raise
        fields["warm_pool"] = warm
        fields["setup_seconds"] = setup
        return fields

    def _failed_fields(self, error: BaseException) -> dict:
        if isinstance(error, ShardedWorkerError) and error.fault_class:
            return _fault_fields(error)
        return super()._failed_fields(error)

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

        if _shared_memory is None:
            raise ShardedWorkerError("multiprocessing.shared_memory is unavailable")
        ctx = get_context("spawn")
        slot_bytes = max(_MIN_RING_BYTES, 48 * self.batch_size + 4096)
        pool = {
            "workers": workers,
            "handles": [],
            "rings": [],
            "closed": False,
        }
        try:
            for index in range(workers):
                # Two slots: a worker writes its speculative window t+1
                # while the parent still reads window t.
                ring = _shared_memory.SharedMemory(
                    create=True, size=slot_bytes * 2
                )
                pool["rings"].append(ring)
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=({"ring": (ring.name, slot_bytes)}, child_conn),
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

    def _dispatch_run(self, pool, network, arrays, n, marks) -> None:
        """Ship each worker its shard for this run: site states, the
        stream columns, the window schedule, and its entries of the
        fault plan.

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
            spec, shm = _columns_to_shm(*arrays)
            stream_spec = ("full",) + spec + (token,)
            pool["stream"] = {
                "refs": [weakref.ref(array) for array in arrays],
                "num_sites": num_sites,
                "token": token,
                "shms": [shm],
            }
            if cache is not None:
                _unlink_segments(cache["shms"])
        else:
            stream_spec = ("cached", cache["token"])
        for handle in pool["handles"]:
            handle.site_lo, handle.site_hi = ShardSliceView.shard_range(
                num_sites, workers, handle.index
            )
            payload = {
                "site_lo": handle.site_lo,
                "site_hi": handle.site_hi,
                "sites": network.sites[handle.site_lo : handle.site_hi],
                "n": n,
                "batch_size": self.batch_size,
                "marks": marks,
                "stream": stream_spec,
                "faults": (
                    ()
                    if self.fault_plan is None
                    else self.fault_plan.wire_for(handle.index)
                ),
            }
            self._send(handle, ("run", payload))

    # -- the window protocol ------------------------------------------

    def _recv_results(self, handle, window, per_worker):
        """Read one ``res``: returns ``(descriptors, compute_seconds)``,
        booking the seconds to the worker's row."""
        _, descriptors, seconds = self._recv(handle, window)
        per_worker[handle.index]["compute_seconds"] += seconds
        return descriptors, seconds

    def _fold_window(self, window, network, handles, pending, per_worker):
        """Fold one window's descriptors in exact ascending-site order —
        the columnar engine's order.

        ``pending`` maps site id -> ``(handle, descriptor)`` and is
        consumed.  When a fold emits a control that can reach a later
        site of the window (a broadcast, or a message to a higher site
        id), every worker owning such sites rolls back: it gets
        ``("roll", site_id, controls)`` and answers with the replacement
        suffix, which supersedes the stale one.  The replacements'
        compute seconds count in their worker's row but not in the
        window's worker compute, which is the whole-window pass behind
        it.  Each decoded descriptor and each roll is booked to its
        worker's ``per_worker`` row.  Returns ``(controls, rollbacks)``:
        the window's control list (what the commit carries) and the
        number of rolls it took.
        """
        controls: List[Tuple[int, int, object]] = []
        rollbacks = 0
        order = sorted(pending)
        i = 0
        while i < len(order):
            site_id = order[i]
            handle, descriptor = pending.pop(site_id)
            payload = self._decode(handle, descriptor, window)
            row = per_worker[handle.index]
            row["packs"] += 1
            row["pack_entries"] += len(payload)
            if isinstance(payload, MessagePack):
                responses = network.deliver_pack(site_id, payload)
            else:
                responses = []
                for message in payload:
                    responses += network.deliver_upstream(site_id, message)
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
                    rollbacks += 1
                    for stale in [s for s in pending if s > site_id]:
                        del pending[stale]
                    for h in affected:
                        self._send(h, ("roll", site_id, controls), window)
                        per_worker[h.index]["rolls_served"] += 1
                    for h in affected:
                        descriptors, _ = self._recv_results(h, window, per_worker)
                        for descriptor in descriptors:
                            pending[descriptor[0]] = (h, descriptor)
                    order = order[: i + 1] + sorted(
                        s for s in pending if s > site_id
                    )
            i += 1
        return controls, rollbacks

    def _finish_run(self, network, handles, per_worker) -> dict:
        """End-of-run barrier: ``fin`` every worker, then restore the
        parent's sites from each shard's final site snapshots, in
        place, and book its speculation verdicts to its row.  Returns
        the summed verdicts."""
        for handle in handles:
            self._send(handle, ("fin",))
        speculation = {"hits": 0, "misses": 0}
        for handle in handles:
            message = self._recv(handle)
            if message[0] != "sta":  # pragma: no cover - protocol bug guard
                raise ShardedWorkerError.from_fault(
                    handle, "poison", f"sent {message[0]!r} instead of final state"
                )
            _, site_lo, states, (hits, misses) = message
            row = per_worker[handle.index]
            row["hits"], row["misses"] = hits, misses
            speculation["hits"] += hits
            speculation["misses"] += misses
            for offset, state in enumerate(states):
                network.sites[site_lo + offset].restore_state(state)
        return speculation

    def _run_windows(self, network, pool, n, marks, on_step, on_checkpoint) -> dict:
        """The window protocol, parent side: per window, gather every
        worker's results, fold them, commit, and fire the window's
        callbacks.  Returns the run's record keys.  A worker fault
        anywhere in here propagates as :class:`ShardedWorkerError`;
        :meth:`run` degrades or fails the run."""
        handles = pool["handles"]
        windows = list(batch_windows(n, self.batch_size, marks))
        mark_set = set(marks)
        rollbacks = 0
        per_window: List[dict] = []
        per_worker = [
            {
                "compute_seconds": 0.0,
                "packs": 0,
                "pack_entries": 0,
                "rolls_served": 0,
            }
            for _ in handles
        ]
        for t_idx, (lo, hi) in enumerate(windows):
            t0 = time.perf_counter()
            pending = {}
            compute = 0.0
            for handle in handles:
                descriptors, seconds = self._recv_results(handle, t_idx, per_worker)
                compute = max(compute, seconds)
                for descriptor in descriptors:
                    pending[descriptor[0]] = (handle, descriptor)
            t1 = time.perf_counter()
            controls, rolls = self._fold_window(
                t_idx, network, handles, pending, per_worker
            )
            t2 = time.perf_counter()
            for handle in handles:
                self._send(handle, ("com", controls), t_idx)
            rollbacks += rolls
            # The slowest worker's compute, the parent's wait for the
            # window's results, and its fold.
            per_window.append(
                {
                    "window": t_idx,
                    "worker_compute_seconds": compute,
                    "transport_wait_seconds": t1 - t0,
                    "parent_fold_seconds": t2 - t1,
                    "controls": len(controls),
                }
            )
            network.items_processed += hi - lo
            t = network.items_processed
            if on_step is not None:
                on_step(t)
            if hi in mark_set:
                on_checkpoint(t)
        speculation = self._finish_run(network, handles, per_worker)
        return {
            "mode": "sharded",
            "workers": pool["workers"],
            "windows": len(windows),
            "rollbacks": rollbacks,
            "speculation": speculation,
            "per_window": per_window,
            "per_worker": per_worker,
            "shm_segments": [
                shm.name for shm in pool["rings"] + pool["stream"]["shms"]
            ],
        }

    @staticmethod
    def _send(handle, message, window=None) -> None:
        """Send a command to a worker.  A dead pipe raises a
        :class:`ShardedWorkerError` classified ``crash`` — or
        ``error`` when the worker shipped its own traceback before the
        pipe closed."""
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            shipped = _queued_traceback(handle)
            if shipped is not None:
                raise _worker_error(handle, shipped, window) from None
            raise ShardedWorkerError.from_fault(
                handle,
                "crash",
                f"pipe closed mid-send "
                f"(exitcode {handle.process.exitcode}): {exc!r}",
                window,
            ) from None

    def _recv(self, handle, window=None):
        """Receive one worker message within ``worker_timeout``; a
        fault raises a :class:`ShardedWorkerError`, classified ``hang``
        when the deadline passes, ``crash`` on a dead pipe, and
        ``error`` when the worker shipped its own traceback.
        """
        if not handle.conn.poll(self.worker_timeout):
            raise ShardedWorkerError.from_fault(
                handle,
                "hang",
                f"no message within {self.worker_timeout:.1f}s "
                f"(process alive: {handle.process.is_alive()})",
                window,
            )
        try:
            message = handle.conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardedWorkerError.from_fault(
                handle,
                "crash",
                f"exited unexpectedly "
                f"(exitcode {handle.process.exitcode}): {exc!r}",
                window,
            ) from None
        if message[0] == "err":
            raise _worker_error(handle, message[1], window)
        return message

    def _decode(self, handle, descriptor, window=None):
        """Rebuild one site's window payload from its wire descriptor.

        All three wire forms are validated at this boundary
        (:class:`~repro.net.messages.PackWireError` and friends); a
        malformed descriptor raises a :class:`ShardedWorkerError`
        classified ``poison`` instead of crashing the coordinator fold.
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
            raise ShardedWorkerError.from_fault(
                handle, "poison", f"undecodable pack descriptor: {exc}", window
            ) from None


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
