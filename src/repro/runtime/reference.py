"""The reference engine: the paper's strictly synchronous round model.

One model round per arrival (Section 2.1): a site observes an item, its
upstream messages reach the coordinator immediately, and the
coordinator's responses (possibly broadcasts) are delivered back before
the next arrival anywhere.  FIFO order, no loss, no crashes — exactly
the synchrony the paper's correctness arguments assume, and exactly the
historical behavior of ``Network.run`` before engines existed, so golden
seed fingerprints are preserved bit for bit.

This engine is the scalar oracle the columnar data plane is validated
against (at batch size 1 :class:`~repro.runtime.columnar.ColumnarEngine`
reproduces it bit for bit); it pays ~6 Python calls of interpreter
dispatch per item, which is what the columnar plane removes.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .base import Engine

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.counters import MessageCounters
    from ..stream.item import DistributedStream
    from .network import Network

__all__ = ["ReferenceEngine"]


class ReferenceEngine(Engine):
    """Strictly synchronous per-item driver (the model of Section 2.1)."""

    name = "reference"

    def run(
        self,
        network: "Network",
        stream: "DistributedStream",
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "MessageCounters":
        checkset = set(checkpoints) if checkpoints is not None else None
        t0 = time.perf_counter()
        processed = 0
        for site_id, item in stream:
            network.step(site_id, item)
            processed += 1
            t = network.items_processed
            if on_step is not None:
                on_step(t)
            if checkset is not None and on_checkpoint is not None and t in checkset:
                on_checkpoint(t)
        self._record_run(network.counters, processed, time.perf_counter() - t0)
        return network.counters
