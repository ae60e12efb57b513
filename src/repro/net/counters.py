"""Message accounting — the experiment's primary measurement.

Every experiment in DESIGN.md reports message counts; this module keeps
them honestly.  A broadcast from the coordinator to ``k`` sites costs
``k`` messages (the paper charges broadcasts the same way, e.g. "this
announcement requires k messages", Section 3).  Word counts are tracked
alongside so Proposition 7's O(1)-words-per-message claim is auditable.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from ..common.words import (
    _ONE_WORD_MAGNITUDE,
    words_for_payload,
    words_for_value,
    words_for_values_array,
)
from .messages import EARLY, Message, MessagePack

__all__ = ["MessageCounters"]

#: Packs at or below this size are accounted with a scalar loop (the
#: typical steady-state pack carries a handful of entries, where numpy
#: call overhead dwarfs the arithmetic); larger packs vectorize.
_SCALAR_PACK_LIMIT = 64


def _value_words(value: float) -> int:
    """Scalar fast path of :func:`~repro.common.words.words_for_value`
    — equal by the same case analysis as ``words_for_values_array``."""
    if -_ONE_WORD_MAGNITUDE <= value <= _ONE_WORD_MAGNITUDE:
        return 1
    return words_for_value(float(value))


class MessageCounters:
    """Tallies of messages by kind and direction.

    Attributes
    ----------
    upstream:
        Total site -> coordinator messages.
    downstream:
        Total coordinator -> site messages (a broadcast to ``k`` sites
        adds ``k``).
    by_kind:
        Per-kind message counts.
    words:
        Total machine words carried by all counted messages.
    """

    def __init__(self) -> None:
        self.upstream = 0
        self.downstream = 0
        self.by_kind: Counter = Counter()
        self.words = 0
        self.max_message_words = 0

    @staticmethod
    def _message_words(message: Message) -> int:
        """Words for one copy of ``message`` (+1 for the kind tag),
        cached on the message object — repeat counts of the same object
        (broadcast copies, multi-query shared deliveries) are free."""
        try:
            return message._words
        except AttributeError:
            w = words_for_payload(message.payload) + 1
            message._words = w
            return w

    def record_upstream(self, message: Message) -> None:
        """Count one site -> coordinator message."""
        self.upstream += 1
        self.by_kind[message.kind] += 1
        w = self._message_words(message)
        self.words += w
        if w > self.max_message_words:
            self.max_message_words = w

    def record_upstream_pack(self, pack: MessagePack) -> None:
        """Count a :class:`~repro.net.messages.MessagePack` as the
        messages it stands for.

        Every tally — totals, per-kind counts, words, and the
        max-words watermark — lands exactly where
        :meth:`record_upstream` over ``pack.messages()`` would put it:
        per-entry words are ``words_for_payload(payload) + 1`` via
        :func:`~repro.common.words.words_for_values_array`, whose
        element-wise equality with the scalar accounting is proved in
        its docstring (and pinned by tests).
        """
        ne, nr = pack.num_early, pack.num_regular
        if ne == 0 and nr == 0:
            return
        self.upstream += ne + nr
        extra = pack.regular_extra
        max_words = self.max_message_words
        words = 0
        if ne + nr <= _SCALAR_PACK_LIMIT:
            if ne:
                self.by_kind[EARLY] += ne
                for e, w in zip(
                    pack.early_idents.tolist(), pack.early_weights.tolist()
                ):
                    per = _value_words(e) + _value_words(w) + 1
                    words += per
                    if per > max_words:
                        max_words = per
            if nr:
                self.by_kind[pack.regular_kind] += nr
                extra_list = (
                    extra.tolist() if extra is not None else [None] * nr
                )
                for e, w, k, x in zip(
                    pack.regular_idents.tolist(),
                    pack.regular_weights.tolist(),
                    pack.regular_keys.tolist(),
                    extra_list,
                ):
                    per = _value_words(e) + _value_words(w) + _value_words(k) + 1
                    if x is not None:
                        per += _value_words(x)
                    words += per
                    if per > max_words:
                        max_words = per
        else:
            if ne:
                self.by_kind[EARLY] += ne
                per = words_for_values_array(pack.early_idents)
                per += words_for_values_array(pack.early_weights)
                per += 1  # the kind tag
                words += int(per.sum())
                max_words = max(max_words, int(per.max()))
            if nr:
                self.by_kind[pack.regular_kind] += nr
                per = words_for_values_array(pack.regular_idents)
                per += words_for_values_array(pack.regular_weights)
                per += words_for_values_array(pack.regular_keys)
                if extra is not None:
                    per += words_for_values_array(extra)
                per += 1  # the kind tag
                words += int(per.sum())
                max_words = max(max_words, int(per.max()))
        self.words += words
        self.max_message_words = max_words

    def record_downstream(self, message: Message, copies: int = 1) -> None:
        """Count a coordinator -> site message (``copies`` recipients)."""
        self.downstream += copies
        self.by_kind[message.kind] += copies
        per = self._message_words(message)
        self.words += per * copies
        if per > self.max_message_words:
            self.max_message_words = per

    @property
    def total(self) -> int:
        """Total messages in both directions — the paper's metric."""
        return self.upstream + self.downstream

    def snapshot_state(self):
        """An opaque rewind point.

        Every engine's run-start checkpoint takes one: a run that
        raises rewinds the counters with the coordinator, so a failed
        run counts nothing, and a sharded run's in-process rerun after
        a worker fault records everything exactly once.
        """
        return (
            self.upstream,
            self.downstream,
            Counter(self.by_kind),
            self.words,
            self.max_message_words,
        )

    def restore_state(self, state) -> None:
        """Rewind to a :meth:`snapshot_state` taken on this instance."""
        upstream, downstream, by_kind, words, max_words = state
        self.upstream = upstream
        self.downstream = downstream
        self.by_kind = Counter(by_kind)
        self.words = words
        self.max_message_words = max_words

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict summary for experiment tables."""
        out = {
            "total": self.total,
            "upstream": self.upstream,
            "downstream": self.downstream,
            "words": self.words,
            "max_message_words": self.max_message_words,
        }
        for kind, count in sorted(self.by_kind.items()):
            out[f"kind:{kind}"] = count
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageCounters(total={self.total}, by_kind={dict(self.by_kind)})"
