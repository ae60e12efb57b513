"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch every library failure with a single ``except`` clause while
still distinguishing configuration problems from protocol violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An algorithm or simulator was constructed with invalid parameters.

    Raised eagerly at construction time (fail fast) rather than deep in a
    stream-processing loop, e.g. a non-positive sample size, zero sites,
    or an epsilon outside ``(0, 1)``.
    """


class InvalidWeightError(ConfigurationError):
    """A weight outside the declared domain ``(0, MAX_WEIGHT]``.

    The one error every out-of-domain weight raises, from every entry
    point a weight takes into the package — stream ingest, the reference
    engine's arrivals, the centralized and extension samplers — through
    :func:`repro.stream.item.check_weight` or
    :func:`~repro.stream.item.check_weight_column`.  Positive weights
    below 1 are legal: the paper's ``w >= 1`` normalization (Section
    2.1) is checked only on request
    (:func:`~repro.stream.item.validate_weights`).
    """


class ProtocolViolationError(ReproError):
    """The distributed protocol reached a state its invariants forbid.

    This signals a bug in the implementation (or deliberate fault
    injection in tests), not a user error: e.g. a regular message
    arriving for a level set that was never saturated, or an epoch
    threshold moving backwards.
    """


class DrainedStreamError(ReproError):
    """A stream generator was asked for items after it was exhausted."""
