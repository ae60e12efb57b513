"""repro — Weighted Reservoir Sampling from Distributed Streams.

A full reproduction of Jayaram, Sharma, Tirthapura & Woodruff,
"Weighted Reservoir Sampling from Distributed Streams" (PODS 2019,
arXiv:1904.04126): the message-optimal distributed weighted sampler
without replacement (Theorem 3), its with-replacement counterpart
(Corollary 1), residual heavy-hitter tracking (Theorem 4), and optimal
L1 tracking (Theorem 6), together with the substrates they run on —
a synchronous coordinator/sites network simulator, workload generators
(including the lower-bound adversarial streams of Theorems 5 and 7),
and the centralized samplers the protocols are validated against.

Quickstart::

    import random
    from repro import DistributedWeightedSWOR, SworConfig
    from repro.stream import zipf_stream, round_robin

    stream = round_robin(zipf_stream(100_000, random.Random(0)), 32)
    protocol = DistributedWeightedSWOR(
        SworConfig(num_sites=32, sample_size=64), seed=1
    )
    counters = protocol.run(stream)
    print(protocol.sample())        # weighted SWOR, valid at every step
    print(counters.total)           # ~ k * log(W/s) / log(1 + k/s)
"""

from .common import (
    ConfigurationError,
    InvalidWeightError,
    ProtocolViolationError,
    RandomSource,
    ReproError,
)
from .core import (
    DistributedUnweightedSWOR,
    DistributedWeightedSWOR,
    DistributedWeightedSWR,
    PerSiteTopS,
    SendEverything,
    SworConfig,
)
from .heavy_hitters import ResidualHeavyHitterTracker, theorem4_sample_size
from .l1 import (
    DeterministicCounterTracker,
    HyzStyleTracker,
    L1Tracker,
    theorem6_duplication,
    theorem6_sample_size,
)
from .net import MessageCounters, Network
from .query import Estimate, MultiQueryDriver, QueryCatalog
from .runtime import (
    ColumnarEngine,
    Engine,
    ReferenceEngine,
    get_engine,
)
from .stream import ColumnarStream, DistributedStream, Item

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors / utilities
    "ReproError",
    "ConfigurationError",
    "InvalidWeightError",
    "ProtocolViolationError",
    "RandomSource",
    # stream & network
    "Item",
    "DistributedStream",
    "ColumnarStream",
    "Network",
    "MessageCounters",
    # runtime engines
    "Engine",
    "ReferenceEngine",
    "ColumnarEngine",
    "get_engine",
    # core protocols
    "SworConfig",
    "DistributedWeightedSWOR",
    "DistributedWeightedSWR",
    "DistributedUnweightedSWOR",
    "SendEverything",
    "PerSiteTopS",
    # applications
    "ResidualHeavyHitterTracker",
    "theorem4_sample_size",
    "L1Tracker",
    "theorem6_sample_size",
    "theorem6_duplication",
    "DeterministicCounterTracker",
    "HyzStyleTracker",
    # query & estimation subsystem
    "Estimate",
    "QueryCatalog",
    "MultiQueryDriver",
]
