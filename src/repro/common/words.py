"""Machine-word accounting (the paper's space/message unit).

Section 2.1 of the paper measures space and message size in machine
words of ``Theta(log(nW))`` bits, assuming an identifier and a weight
each fit in O(1) words.  The simulator reports message *counts* (the
primary metric) but also validates that each concrete message payload is
O(1) words so counts and communicated words agree up to a constant —
Proposition 7's claim.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as _np

__all__ = [
    "word_size_bits",
    "words_for_value",
    "words_for_payload",
    "words_for_values_array",
]


def word_size_bits(n: int, total_weight: float) -> int:
    """Bits per machine word for a stream of ``n`` items, weight ``W``."""
    magnitude = max(2.0, float(n) * max(2.0, total_weight))
    return max(32, int(math.ceil(math.log2(magnitude))))


def words_for_value(value: float, word_bits: int = 64) -> int:
    """Words needed to encode one identifier/weight/key value."""
    if value == 0:
        return 1
    bits = max(1, int(math.ceil(math.log2(abs(value) + 1))) + 1)
    return max(1, int(math.ceil(bits / word_bits)))


#: Magnitude below which :func:`words_for_value` provably returns 1:
#: for ``0 < |v| <= 2**62``, ``log2(|v|+1) <= 62 + 2**-61``, so even a
#: 1-ulp libm error leaves ``ceil(.) <= 63`` and the bit count
#: ``ceil(.)+1 <= 64`` — exactly one 64-bit word (and ``v == 0`` is one
#: word by definition).
_ONE_WORD_MAGNITUDE = 2.0**62


def words_for_values_array(values):
    """Vectorized :func:`words_for_value` over a numpy array.

    **Provably element-wise equal** to the scalar function: values with
    ``|v| <= 2**62`` cost one word by the case analysis on
    :data:`_ONE_WORD_MAGNITUDE`; the (rare) larger values — giant
    weights, precision-sampling keys with tiny exponentials — are
    routed through the scalar function itself, so no independently
    rounded ``log2`` can ever disagree with it.  This is what lets a
    :class:`~repro.net.messages.MessagePack`'s word accounting match
    the sum over the individual messages it replaces, bit for bit.
    """
    v = _np.asarray(values, dtype=_np.float64)
    out = _np.ones(len(v), dtype=_np.int64)
    big = _np.flatnonzero(_np.abs(v) > _ONE_WORD_MAGNITUDE)
    for i in big.tolist():
        out[i] = words_for_value(float(v[i]))
    return out


def words_for_payload(payload: Tuple, word_bits: int = 64) -> int:
    """Total words to encode a tuple payload, one field at a time.

    Strings (message kind tags) cost one word — they stand for a small
    enum on the wire, not the actual text.
    """
    total = 0
    for field in payload:
        if isinstance(field, (int, float)):
            total += words_for_value(float(field), word_bits)
        else:
            total += 1
    return max(1, total)
