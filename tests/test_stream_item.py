"""Unit tests for repro.stream.item."""

from __future__ import annotations

import math
import pickle
import random

import numpy as np
import pytest

from repro.centralized import (
    MisraGries,
    PrioritySampler,
    SkipWeightedReservoirSWOR,
    SpaceSaving,
    WeightedReservoirSWOR,
    WeightedReservoirSWR,
)
from repro.common import ConfigurationError, InvalidWeightError
from repro.common.rng import MAX_WEIGHT
from repro.extensions import CascadeWeightedSWOR, SlidingWindowWeightedSWOR
from repro.stream import DistributedStream, Item, total_weight, validate_weights
from repro.stream.item import check_weight

from test_columnar_runtime import BAD_WEIGHTS, _weight_error

#: Every sampler entry point that takes a weight: a fresh sampler and
#: the method that feeds it.
SAMPLERS = {
    "es-swor": (lambda: WeightedReservoirSWOR(3, random.Random(1)), "insert"),
    "es-skip": (lambda: SkipWeightedReservoirSWOR(3, random.Random(1)), "insert"),
    "swr": (lambda: WeightedReservoirSWR(3, random.Random(1)), "insert"),
    "misra-gries": (lambda: MisraGries(3), "insert"),
    "space-saving": (lambda: SpaceSaving(3), "insert"),
    "priority": (lambda: PrioritySampler(3, random.Random(1)), "insert"),
    "cascade": (lambda: CascadeWeightedSWOR(3, random.Random(1)), "insert"),
    "sliding-window": (
        lambda: SlidingWindowWeightedSWOR(3, np.random.default_rng(1)),
        "insert",
    ),
    "sliding-window-columns": (
        lambda: SlidingWindowWeightedSWOR(3, np.random.default_rng(1)),
        "insert_columns",
    ),
}


def _feed(sampler, method, weights):
    if method == "insert_columns":
        sampler.insert_columns(
            np.arange(len(weights)), np.asarray(weights, dtype=np.float64)
        )
    else:
        for ident, weight in enumerate(weights):
            sampler.insert(Item(ident, weight))


class TestItem:
    def test_fields(self):
        item = Item(3, 2.5)
        assert item.ident == 3 and item.weight == 2.5

    def test_is_hashable_tuple(self):
        assert Item(1, 2.0) == (1, 2.0)
        assert hash(Item(1, 2.0)) == hash((1, 2.0))


class TestValidateWeights:
    def test_accepts_valid(self, tiny_weighted_items):
        validate_weights(tiny_weighted_items)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidWeightError):
            validate_weights([Item(0, 0.0)])
        with pytest.raises(InvalidWeightError):
            validate_weights([Item(0, -1.0)])

    def test_rejects_nan_inf(self):
        with pytest.raises(InvalidWeightError):
            validate_weights([Item(0, float("nan"))])
        with pytest.raises(InvalidWeightError):
            validate_weights([Item(0, float("inf"))])

    def test_model_normalization_enforced(self):
        with pytest.raises(InvalidWeightError):
            validate_weights([Item(0, 0.5)])
        validate_weights([Item(0, 0.5)], require_at_least_one=False)


class TestOneWeightDomain:
    """``check_weight`` is the one scalar check of ``(0, MAX_WEIGHT]``,
    and every sampler entry point calls it (or its column form) before
    touching any state."""

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    def test_check_weight_rejects(self, bad):
        with pytest.raises(InvalidWeightError, match=_weight_error(bad)) as raised:
            check_weight(bad)
        assert isinstance(raised.value, ConfigurationError)  # one error type
        with pytest.raises(InvalidWeightError, match=_weight_error(bad)):
            validate_weights([Item(0, bad)], require_at_least_one=False)

    def test_domain_edges_accepted(self):
        for weight in (MAX_WEIGHT, math.ulp(0.0), 0.5, 1, 2**900):
            check_weight(weight)

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_every_sampler_rejects_unchanged(self, name, bad):
        build, method = SAMPLERS[name]
        sampler = build()
        _feed(sampler, method, [3.0, 1.0, 7.0, 2.0, 5.0])
        # The pickle holds every counter and the generator's state.
        before = pickle.dumps(sampler)
        # A column is validated whole: its good weights are not taken.
        weights = [2.0, bad, 4.0] if method == "insert_columns" else [bad]
        with pytest.raises(InvalidWeightError, match=_weight_error(bad)):
            _feed(sampler, method, weights)
        assert pickle.dumps(sampler) == before


class TestTotalWeight:
    def test_sums(self, tiny_weighted_items):
        assert total_weight(tiny_weighted_items) == 31.0

    def test_empty_zero(self):
        assert total_weight([]) == 0.0


class TestDistributedStream:
    def test_iteration_order(self, tiny_weighted_items):
        stream = DistributedStream(tiny_weighted_items, [0, 1, 0, 1, 0], 2)
        pairs = list(stream)
        assert [site for site, _ in pairs] == [0, 1, 0, 1, 0]
        assert [item for _, item in pairs] == tiny_weighted_items

    def test_length_and_totals(self, tiny_weighted_items):
        stream = DistributedStream(tiny_weighted_items, [0] * 5, 1)
        assert len(stream) == 5
        assert stream.total_weight() == 31.0

    def test_prefix_weights(self, tiny_weighted_items):
        stream = DistributedStream(tiny_weighted_items, [0] * 5, 1)
        assert stream.prefix_weights() == [1.0, 3.0, 7.0, 15.0, 31.0]

    def test_local_streams_partition(self, tiny_weighted_items):
        stream = DistributedStream(tiny_weighted_items, [0, 1, 0, 2, 1], 3)
        locals_ = stream.local_streams()
        assert [i.ident for i in locals_[0]] == [0, 2]
        assert [i.ident for i in locals_[1]] == [1, 4]
        assert [i.ident for i in locals_[2]] == [3]

    def test_mismatched_lengths_rejected(self, tiny_weighted_items):
        with pytest.raises(ConfigurationError):
            DistributedStream(tiny_weighted_items, [0, 1], 2)

    def test_bad_site_index_rejected(self, tiny_weighted_items):
        with pytest.raises(ConfigurationError):
            DistributedStream(tiny_weighted_items, [0, 1, 0, 5, 0], 2)

    def test_zero_sites_rejected(self):
        with pytest.raises(ConfigurationError):
            DistributedStream([], [], 0)
