"""Chaos-injection harness for the fault-tolerant sharded runtime.

See :mod:`repro.faults.plan` for the declarative :class:`FaultPlan`
and the worker-side injection seams; ``tests/test_chaos.py`` is the
consumer.  Plans are passed to the engine via
``ShardedEngine(fault_plan=...)``, ``get_engine(..., fault_plan=...)``
or the ``--fault-plan`` debug CLI flag.
"""

from .plan import (
    CHAOS_EXITCODE,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    block_forever,
    chaos_exit,
    corrupt_descriptors,
    fault_action,
    parse_fault_plan,
)

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
