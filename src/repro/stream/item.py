"""Weighted stream items and ordered distributed streams.

The paper's input is a global sequence ``o_1, o_2, ...`` of weighted
items ``(e, w)`` — globally ordered by arrival time — partitioned
adversarially across ``k`` sites (Section 2.1).  :class:`Item` is one
update; :class:`DistributedStream` is the global order together with the
site assignment, which is exactly what the simulator replays.
"""

from __future__ import annotations

import math
from operator import index as _as_int_index
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as _np

from ..common.errors import ConfigurationError, InvalidWeightError
from ..common.rng import MAX_WEIGHT

__all__ = [
    "Item",
    "DistributedStream",
    "check_weight",
    "check_weight_column",
    "total_weight",
    "validate_weights",
]


class Item(NamedTuple):
    """One weighted stream update ``(e, w)``.

    Attributes
    ----------
    ident:
        The item identifier ``e``.  Identifiers may repeat across the
        stream; each occurrence is sampled as a distinct item
        (Section 1, problem definition).
    weight:
        The positive weight ``w``.  The paper normalizes to ``w >= 1``;
        generators in this package honor that.
    """

    ident: int
    weight: float


def validate_weights(items: Iterable[Item], require_at_least_one: bool = True) -> None:
    """Raise :class:`InvalidWeightError` on a weight outside the domain
    (:func:`check_weight`).

    ``require_at_least_one`` additionally enforces the paper's ``w >= 1``
    normalization (Section 2.1).
    """
    for item in items:
        w = item.weight
        check_weight(w)
        if require_at_least_one and w < 1.0:
            raise InvalidWeightError(
                f"item {item.ident} has weight {w} < 1; the model assumes "
                "weights are normalized to be at least 1"
            )


def weight_error(weight: float) -> InvalidWeightError:
    """The one error for a weight outside ``(0, MAX_WEIGHT]``: one
    message when the weight is not positive and finite, another for a
    finite weight above the ceiling."""
    if 0.0 < weight < math.inf:
        return InvalidWeightError(
            f"weight must be at most MAX_WEIGHT = 2**959: {weight}"
        )
    return InvalidWeightError(f"weight must be positive and finite: {weight}")


def check_weight(weight: float) -> None:
    """Reject one weight outside the declared domain ``(0, MAX_WEIGHT]``
    with :func:`weight_error` — the check every scalar entry point for
    weights makes (the reference engine's arrivals, every sampler's
    ``insert``).  :data:`~repro.common.rng.MAX_WEIGHT` keeps every key
    ``w/t`` finite; positive weights below 1 stay legal."""
    if not 0.0 < weight <= MAX_WEIGHT:
        raise weight_error(weight)


def check_weight_column(weights) -> None:
    """:func:`check_weight` over a float64 weight column — the one
    ingest check every stream the columnar data plane reads passes.
    Two reductions, no temporaries on the (common) clean path."""
    if len(weights) and not (weights.min() > 0.0 and weights.max() <= MAX_WEIGHT):
        bad = weights[~((weights > 0.0) & (weights <= MAX_WEIGHT))][0]
        raise weight_error(float(bad))


def total_weight(items: Iterable[Item]) -> float:
    """Sum of weights — the paper's ``W``."""
    return sum(item.weight for item in items)


class DistributedStream:
    """A globally-ordered stream with a per-item site assignment.

    Parameters
    ----------
    items:
        Items in global arrival order.
    assignment:
        ``assignment[j]`` is the site (``0..k-1``) receiving item ``j``.
    num_sites:
        The number of sites ``k``.
    """

    def __init__(
        self,
        items: Sequence[Item],
        assignment: Sequence[int],
        num_sites: int,
    ) -> None:
        if len(items) != len(assignment):
            raise ConfigurationError(
                f"{len(items)} items but {len(assignment)} assignments"
            )
        if num_sites <= 0:
            raise ConfigurationError(f"num_sites must be positive, got {num_sites}")
        for site in assignment:
            if not 0 <= site < num_sites:
                raise ConfigurationError(
                    f"site index {site} out of range for k={num_sites}"
                )
        self._items: List[Item] = list(items)
        self._assignment: List[int] = list(assignment)
        self.num_sites = num_sites
        self._arrays: Optional[Tuple] = None

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Tuple[int, Item]]:
        """Yield ``(site, item)`` pairs in global arrival order."""
        return iter(zip(self._assignment, self._items))

    @property
    def items(self) -> List[Item]:
        """The items in global arrival order (copy-safe view)."""
        return self._items

    @property
    def assignment(self) -> List[int]:
        """Per-item site indices, aligned with :attr:`items`."""
        return self._assignment

    def total_weight(self) -> float:
        """The stream's total weight ``W``."""
        return total_weight(self._items)

    def prefix_weights(self) -> List[float]:
        """``W_t`` for every prefix ``t`` (1-indexed semantics: entry j
        is the weight of the first ``j+1`` items)."""
        acc = 0.0
        out = []
        for item in self._items:
            acc += item.weight
            out.append(acc)
        return out

    def iter_batches(
        self, batch_size: int
    ) -> Iterator[Tuple[List[int], List[Item]]]:
        """Yield ``(sites, items)`` chunk pairs in global arrival order.

        Chunked iteration for batch-oriented consumers: each yielded
        pair holds ``batch_size`` consecutive arrivals (the final chunk
        may be shorter), with ``sites[i]`` the site receiving
        ``items[i]``.
        """
        if batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive, got {batch_size}"
            )
        for lo in range(0, len(self._items), batch_size):
            hi = lo + batch_size
            yield self._assignment[lo:hi], self._items[lo:hi]

    def arrays(self) -> Tuple:
        """``(assignment, weights, idents)`` as numpy arrays, built once
        and cached — the structure-of-arrays view the columnar data
        plane slices per batch.

        Raises :class:`~repro.common.errors.ConfigurationError` when an
        identifier is not int64-representable: the columnar plane
        (``engine="columnar"`` / ``"sharded"`` and the multi-query
        driver) needs an int64 ident column, while ``engine="reference"``
        replays any identifiers.  Raises
        :class:`~repro.common.errors.InvalidWeightError`, before any
        site runs, for a weight outside ``(0, MAX_WEIGHT]``
        (:func:`check_weight_column`).
        """
        if self._arrays is None:
            n = len(self._items)
            try:
                # operator.index rejects floats and other non-integral
                # idents (np.fromiter alone would silently truncate
                # 2.5 -> 2).
                idents = _np.fromiter(
                    (_as_int_index(item.ident) for item in self._items),
                    dtype=_np.int64,
                    count=n,
                )
            except (TypeError, ValueError, OverflowError):
                raise ConfigurationError(
                    "stream has identifiers that are not int64-"
                    "representable integers; the columnar data plane "
                    "(engine='columnar' or 'sharded', and the multi-query "
                    "driver) requires an int64 ident column — use "
                    "engine='reference'"
                ) from None
            weights = _np.fromiter(
                (item.weight for item in self._items),
                dtype=_np.float64,
                count=n,
            )
            check_weight_column(weights)
            self._arrays = (
                _np.asarray(self._assignment, dtype=_np.int64),
                weights,
                idents,
            )
        return self._arrays

    def local_streams(self) -> List[List[Item]]:
        """Items per site, each in arrival order (the ``S_i`` views)."""
        per_site: List[List[Item]] = [[] for _ in range(self.num_sites)]
        for site, item in self:
            per_site[site].append(item)
        return per_site
