"""The failure contract: every failed run is rewound and recorded once.

Under every engine — reference, columnar at batch size 1 and at the
default, sharded at two workers — a run that raises leaves every
site's and the coordinator's ``snapshot_state()``, the counters and
``items_processed`` at their run-start values, and one record with
``mode="failed"`` and a one-line ``reason``.  The raise may come from a
site (in ``on_item`` or ``on_columns``), from an out-of-domain weight
or from ``on_checkpoint``.  A multi-query driver pass is rewound the
same way, and every engine refuses a stream whose site count is not
the network's before any site runs.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, InvalidWeightError
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.query import (
    CountQuery,
    MultiQueryDriver,
    SlidingWindowQuery,
    SubsetSumQuery,
    TotalWeightQuery,
    WeightedMeanQuery,
)
from repro.runtime import (
    ColumnarEngine,
    ReferenceEngine,
    ShardedEngine,
    SiteAlgorithm,
)
from repro.stream import Item, round_robin

SITES = 8
SAMPLE = 4
PREFIX = 800  # a clean first run, so the run-start state is not fresh
ITEMS = 4000
FAULTY = 6

ENGINES = {
    "reference": ReferenceEngine,
    "columnar@1": lambda: ColumnarEngine(batch_size=1),
    "columnar": ColumnarEngine,
    "sharded": lambda: ShardedEngine(workers=2),
}


@pytest.fixture(params=sorted(ENGINES))
def engine(request):
    engine = ENGINES[request.param]()
    yield engine
    close = getattr(engine, "close", None)
    if close is not None:
        close()


class RaisingSite(SiteAlgorithm):
    """Sends nothing, and raises once it has seen more than
    ``fail_after`` arrivals, through ``on_item`` or ``on_columns``."""

    def __init__(self, fail_after: int) -> None:
        self.fail_after = fail_after
        self.seen = 0

    def _observe(self, count: int) -> None:
        self.seen += count
        if self.seen > self.fail_after:
            raise RuntimeError("site-exploded")

    def on_item(self, item):
        self._observe(1)
        return []

    def on_columns(self, idents, weights):
        self._observe(len(weights))
        return []

    def on_control(self, message):
        pass


def _items(n, seed):
    rng = random.Random(seed)
    return [Item(i, rng.uniform(1.0, 100.0)) for i in range(n)]


def _stream(n=ITEMS, seed=1, sites=SITES):
    return round_robin(_items(n, seed), sites)


def _value(obj):
    """``obj`` as plain comparable values.  A default snapshot is
    pickled bytes, and equal states need not pickle to equal bytes, so
    it is compared by what it holds."""
    if isinstance(obj, bytes):
        return _value(pickle.loads(obj))
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.tolist())
    if isinstance(obj, np.random.Generator):
        return obj.bit_generator.state
    if isinstance(obj, dict):
        return {key: _value(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)) and not hasattr(obj, "_fields"):
        return [_value(value) for value in obj]
    if hasattr(obj, "__dict__") and not callable(obj):
        return (type(obj).__name__, _value(vars(obj)))
    return obj


def _state(network):
    """Every actor's own snapshot, the counters' and the arrival clock."""
    return _value(
        (
            [site.snapshot_state() for site in network.sites],
            network.coordinator.snapshot_state(),
            network.counters.snapshot_state(),
            network.items_processed,
        )
    )


def _protocol(engine, raising=False):
    """A SWOR protocol after a clean prefix run; with ``raising``, its
    site :data:`FAULTY` raises after 250 arrivals of the next run."""
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=SITES, sample_size=SAMPLE), seed=3, engine=engine
    )
    if raising:
        proto.network.sites[FAULTY] = RaisingSite(PREFIX // SITES + 250)
    proto.run(_stream(PREFIX, seed=0))
    return proto


def _assert_rewound(engine, network, start, n):
    assert _state(network) == start
    stats = engine.last_run_stats
    assert stats["mode"] == "failed"
    assert stats["reason"] and "\n" not in stats["reason"]
    assert "not rewound" not in stats["reason"]
    assert 0 <= stats["items"] < n


class TestFailedRunIsRewound:
    def test_a_raising_site(self, engine):
        proto = _protocol(engine, raising=True)
        start = _state(proto.network)
        with pytest.raises(RuntimeError, match="site-exploded"):
            proto.run(_stream())
        _assert_rewound(engine, proto.network, start, ITEMS)
        assert "site-exploded" in engine.last_run_stats["reason"]

    def test_an_out_of_domain_weight(self, engine):
        proto = _protocol(engine)
        start = _state(proto.network)
        items = _items(ITEMS, 1)
        items[3000] = Item(3000, float("nan"))
        with pytest.raises(InvalidWeightError):
            proto.run(round_robin(items, SITES))
        _assert_rewound(engine, proto.network, start, ITEMS)
        assert engine.last_run_stats["reason"].startswith("InvalidWeightError: ")

    def test_a_raising_on_checkpoint(self, engine):
        proto = _protocol(engine)
        start = _state(proto.network)

        def on_checkpoint(t):
            raise RuntimeError(f"checkpoint-exploded at {t}")

        with pytest.raises(RuntimeError, match="checkpoint-exploded"):
            proto.run(
                _stream(),
                checkpoints=[PREFIX + 2000],
                on_checkpoint=on_checkpoint,
            )
        _assert_rewound(engine, proto.network, start, ITEMS)
        assert engine.last_run_stats["reason"] == (
            f"RuntimeError: checkpoint-exploded at {PREFIX + 2000}"
        )
        assert engine.last_run_stats["items"] == 2000

    def test_the_rewound_network_reruns_as_if_never_failed(self, engine):
        """After the rewind, the same run completes exactly as a run
        that never failed."""
        failed = _protocol(engine)

        def on_checkpoint(t):
            raise RuntimeError("once")

        with pytest.raises(RuntimeError, match="once"):
            failed.run(_stream(), checkpoints=[PREFIX + 1000], on_checkpoint=on_checkpoint)
        failed.run(_stream())
        clean = _protocol(engine)
        clean.run(_stream())
        assert _state(failed.network) == _state(clean.network)
        assert failed.sample_with_keys() == clean.sample_with_keys()


class UnpicklableSite(RaisingSite):
    """A :class:`RaisingSite` holding a lambda, so its default snapshot
    (which pickles its attributes) raises."""

    def __init__(self, fail_after: int) -> None:
        super().__init__(fail_after)
        self.hook = lambda: None


def test_a_run_without_a_checkpoint_runs_and_says_it_was_not_rewound(engine):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=SITES, sample_size=SAMPLE), seed=3, engine=engine
    )
    proto.network.sites[FAULTY] = UnpicklableSite(ITEMS)
    proto.run(_stream(PREFIX, seed=0))
    assert engine.last_run_stats.get("mode") in (None, "fallback")
    proto.network.sites[FAULTY].fail_after = 250
    with pytest.raises(RuntimeError, match="site-exploded"):
        proto.run(_stream())
    stats = engine.last_run_stats
    assert stats["mode"] == "failed"
    assert "(not rewound: " in stats["reason"]
    assert "\n" not in stats["reason"]
    assert proto.network.items_processed > PREFIX


class TestSiteCountIsChecked:
    @pytest.mark.parametrize("sites", [2 * SITES, SITES // 2])
    def test_every_engine_refuses_before_any_site_runs(self, engine, sites):
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE), seed=3
        )
        network = proto.network
        start = _state(network)
        with pytest.raises(ConfigurationError, match=f"stream has {sites} sites"):
            engine.run(network, _stream(sites=sites))
        assert _state(network) == start
        assert getattr(engine, "_pool", None) is None


def _driver_queries():
    return [
        SubsetSumQuery("sum", sample_size=8),
        SubsetSumQuery(
            "even", predicate=lambda item: item.ident % 2 == 0, sample_size=8
        ),
        CountQuery("count", sample_size=8),
        WeightedMeanQuery("mean", sample_size=8),
        TotalWeightQuery("total"),
        SlidingWindowQuery("recent", window=500, sample_size=8),
    ]


def _sampler_state(sampler):
    return (
        sampler.items_seen,
        sampler._last_timestamp,
        sampler._gen.bit_generator.state,
        [(entry.index, entry.dominators) for entry in sampler._entries],
        sampler.sample_with_keys(),
    )


@pytest.mark.parametrize("engine_name", ["reference", "columnar"])
def test_a_driver_pass_that_raises_is_rewound(engine_name):
    """A query whose answer raises at a checkpoint leaves every query
    network, the sliding-window sampler and ``items_processed`` at
    their pass-start state, and the pass recorded as failed; the same
    pass then answers as on a driver that never failed."""
    driver = MultiQueryDriver(
        _driver_queries(), num_sites=SITES, seed=5, engine=engine_name
    )
    driver.run(_stream(PREFIX, seed=0))
    networks = [c.network for c in driver.compiled if hasattr(c, "network")]
    sampler = driver["recent"].sampler
    start = ([_state(n) for n in networks], _sampler_state(sampler))

    def boom():
        raise RuntimeError("answer-exploded")

    driver["mean"].answer = boom
    with pytest.raises(RuntimeError, match="answer-exploded"):
        driver.run(_stream(2000), checkpoints=[PREFIX + 1500])
    assert ([_state(n) for n in networks], _sampler_state(sampler)) == start
    assert driver.items_processed == PREFIX
    stats = driver.engine.last_run_stats
    assert stats["mode"] == "failed"
    assert stats["reason"] == "RuntimeError: answer-exploded"
    assert stats["items"] == 1500
    del driver["mean"].answer
    clean = MultiQueryDriver(
        _driver_queries(), num_sites=SITES, seed=5, engine=engine_name
    )
    clean.run(_stream(PREFIX, seed=0))
    rerun, expected = (
        d.run(_stream(2000), checkpoints=[PREFIX + 1500]) for d in (driver, clean)
    )
    assert repr(rerun.answers) == repr(expected.answers)
    assert repr(rerun.answers_at(PREFIX + 1500)) == repr(
        expected.answers_at(PREFIX + 1500)
    )
    assert [_state(n) for n in networks] == [
        _state(c.network) for c in clean.compiled if hasattr(c, "network")
    ]
