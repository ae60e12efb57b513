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

from .base import Engine

__all__ = ["ReferenceEngine"]


class ReferenceEngine(Engine):
    """Strictly synchronous per-item driver (the model of Section 2.1)."""

    name = "reference"

    def _replay(
        self, network, stream, on_step, marks, on_checkpoint, checkpoint
    ) -> dict:
        mark_set = set(marks)
        processed = 0
        for site_id, item in stream:
            network.step(site_id, item)
            processed += 1
            if on_step is not None:
                on_step(network.items_processed)
            if processed in mark_set:
                on_checkpoint(network.items_processed)
        return {}
