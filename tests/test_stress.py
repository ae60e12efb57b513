"""Stress tier: 50-fold repeats of runs whose outcome once hung on timing.

A speculation that raised used to decide how a sharded run failed: the
worker's error raced the parent's commit, and a tier-1 test failed 3 of
20 isolated runs before the worker held such errors until the commit.
One run per test cannot catch a regression of that kind; fifty can.
The seeded single-fault property gets the same treatment, since every
fault kind now ends in one degradation path.

The tier is deselected from tier-1 (``addopts = "-m 'not stress'"`` in
``pyproject.toml``) and runs in its own CI job::

    PYTHONPATH=src python -m pytest -m stress -q
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import test_chaos as chaos
import test_sharded_engine as sharded

pytestmark = pytest.mark.stress

RUNS = 50


@pytest.mark.parametrize("run", range(RUNS))
def test_worker_exception_surfaces_traceback_without_orphans(run):
    sharded.TestWorkerFailure().test_worker_exception_surfaces_traceback_without_orphans()


@pytest.mark.parametrize("run", range(RUNS))
def test_speculative_raise_under_slow_fold_is_a_worker_error(run):
    sharded.TestWorkerFailure().test_speculative_raise_under_slow_fold_is_a_worker_error()


@settings(
    max_examples=RUNS,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_seeded_single_fault_degrades_bit_identically(seed):
    chaos.assert_single_fault_degrades(seed)
