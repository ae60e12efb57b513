"""Pluggable execution engines for the coordinator/sites model.

This package separates *what* the protocols compute (the site and
coordinator state machines of :mod:`repro.core`) from *how* a stream is
driven through them:

* :class:`ReferenceEngine` — the paper's strictly synchronous round
  model, one arrival at a time: the scalar oracle every other engine
  is checked against;
* :class:`ColumnarEngine` — the vectorized data plane: arrivals in
  batch windows, one columnar site pass and one message pack per
  (site, batch), and batch-boundary control propagation, trading a
  bounded number of extra (coordinator-discarded) messages for an
  order-of-magnitude drop in interpreter dispatch;
* :class:`ShardedEngine` — the columnar plane with its site passes
  spread across worker processes, bit-identical to ``ColumnarEngine``.

Select an engine by instance or by name::

    from repro.runtime import get_engine
    engine = get_engine("columnar", batch_size=4096)
    counters = protocol.run(stream, engine=engine)
"""

from __future__ import annotations

from typing import Dict, Optional, Type, Union

from ..common.errors import ConfigurationError
from ..faults import FaultPlan
from .base import Engine
from .columnar import ColumnarEngine
from .interfaces import BROADCAST, CoordinatorAlgorithm, SiteAlgorithm
from .network import Network
from .reference import ReferenceEngine
from .sharded import ShardedEngine, ShardedWorkerError

__all__ = [
    "BROADCAST",
    "SiteAlgorithm",
    "CoordinatorAlgorithm",
    "Network",
    "Engine",
    "ReferenceEngine",
    "ColumnarEngine",
    "ShardedEngine",
    "ShardedWorkerError",
    "ENGINES",
    "get_engine",
]

#: Registry of engine names to classes (extend to plug in new engines).
ENGINES: Dict[str, Type[Engine]] = {
    ReferenceEngine.name: ReferenceEngine,
    ColumnarEngine.name: ColumnarEngine,
    ShardedEngine.name: ShardedEngine,
}


def get_engine(
    spec: Union[str, Engine, None] = None,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    worker_timeout: Optional[float] = None,
    fault_plan: Union[str, FaultPlan, None] = None,
) -> Engine:
    """Resolve an engine from a name, an instance, or ``None``.

    Parameters
    ----------
    spec:
        ``None`` (reference), a registry name (``"reference"`` /
        ``"columnar"`` / ``"sharded"``), or an
        already-built :class:`Engine` instance (returned as-is).
    batch_size:
        Steady-state batch size for the batching engines; rejected for
        engines that do not batch.
    workers:
        Worker process count for the sharded engine (defaults to the
        CPUs this process may run on); rejected for engines that do not
        shard.
    worker_timeout:
        Seconds the sharded engine waits for a worker message before
        classifying the worker as hung; rejected for engines that do
        not shard.
    fault_plan:
        A :class:`~repro.faults.FaultPlan` (or its ``kind:worker:window``
        string form) injected through the sharded engine's chaos seams
        — test/debug only; rejected for engines that do not shard.
    """
    if isinstance(spec, Engine):
        if batch_size is not None:
            raise ConfigurationError(
                "batch_size cannot be combined with an engine instance"
            )
        if workers is not None:
            raise ConfigurationError(
                "workers cannot be combined with an engine instance"
            )
        if worker_timeout is not None:
            raise ConfigurationError(
                "worker_timeout cannot be combined with an engine instance"
            )
        if fault_plan is not None:
            raise ConfigurationError(
                "fault_plan cannot be combined with an engine instance"
            )
        return spec
    name = "reference" if spec is None else str(spec)
    cls = ENGINES.get(name)
    if cls is None:
        known = ", ".join(sorted(ENGINES))
        raise ConfigurationError(f"unknown engine {name!r} (known: {known})")
    kwargs = {}
    if batch_size is not None:
        if not issubclass(cls, ColumnarEngine):
            raise ConfigurationError(
                f"engine {name!r} does not take a batch_size"
            )
        kwargs["batch_size"] = batch_size
    if workers is not None:
        if not issubclass(cls, ShardedEngine):
            raise ConfigurationError(
                f"engine {name!r} does not take workers"
            )
        kwargs["workers"] = workers
    if worker_timeout is not None:
        if not issubclass(cls, ShardedEngine):
            raise ConfigurationError(
                f"engine {name!r} does not take a worker_timeout"
            )
        kwargs["worker_timeout"] = worker_timeout
    if fault_plan is not None:
        if not issubclass(cls, ShardedEngine):
            raise ConfigurationError(
                f"engine {name!r} does not take a fault_plan"
            )
        kwargs["fault_plan"] = fault_plan
    return cls(**kwargs)
