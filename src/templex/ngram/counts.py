"""N-gram counting with sentence padding and Kneser-Ney continuation counts.

Every sequence is padded with ``order - 1`` beginning-of-sentence symbols and
one end-of-sentence symbol, and all k-grams for k <= order are counted from
the padded form.  Continuation counts (number of distinct one-token left
extensions) are derived for every order below the top; they are the counts
the lower-order smoothed distributions are built from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
# Symbols the models give a meaning; no training sequence may contain one.
RESERVED = frozenset((BOS, EOS, UNK))
# log10 score of anything a model cannot score better; no query returns -inf
LOG_FLOOR = -99.0


class EmptyCorpus(ValueError):
    """No sequences were supplied for counting."""


NGram = tuple[str, ...]


@dataclass
class NGramCounts:
    order: int
    raw: list[dict[NGram, int]]  # raw[k-1] maps k-grams to window counts
    continuation: list[dict[NGram, int]]  # continuation[k-1], empty dict at the top order
    vocab: frozenset[str]  # all sequence tokens plus BOS/EOS
    sequence_count: int

    def used(self, k: int) -> dict[NGram, int]:
        """Counts the order-k distribution is estimated from.

        Raw window counts at the top order, continuation counts below.
        """
        if k == self.order:
            return self.raw[k - 1]
        return self.continuation[k - 1]

    def count_of_counts(self, k: int) -> tuple[int, int, int, int]:
        """(n1, n2, n3, n4) over the used counts at order k."""
        n = [0, 0, 0, 0]
        for c in self.used(k).values():
            if c <= 4:
                n[c - 1] += 1
        return tuple(n)


def count_ngrams(sequences: Iterable[Sequence[str]], order: int) -> NGramCounts:
    """Count every padded k-gram, k <= order, and the continuation counts.

    Raises ValueError for an empty sequence or one that contains a reserved
    symbol (``<s>``, ``</s>``, ``<unk>``), naming its position, and
    EmptyCorpus when there are no sequences.  Grams are inserted in order of
    first occurrence.
    """
    if order < 1:
        raise ValueError("order must be >= 1, got %d" % order)
    vocab: set[str] = set()
    pad = (BOS,) * (order - 1)
    padded: list[tuple[str, ...]] = []
    for nseq, seq in enumerate(sequences):
        toks = tuple(seq)
        if not toks:
            raise ValueError("empty sequence at position %d" % nseq)
        if not RESERVED.isdisjoint(toks):
            raise ValueError(
                "sequence at position %d contains the reserved symbol %r"
                % (nseq, min(RESERVED.intersection(toks)))
            )
        vocab.update(toks)
        padded.append(pad + toks + (EOS,))
    if not padded:
        raise EmptyCorpus("no sequences to count")
    # zip of k shifted copies of a sequence yields its k-grams left to right
    raw: list[dict[NGram, int]] = [
        Counter(chain.from_iterable(zip(*[p[j:] for j in range(k)]) for p in padded))
        for k in range(1, order + 1)
    ]
    # Raw (k+1)-gram types are distinct (left-extension, k-gram) pairs, so
    # counting their suffixes gives the order-k continuation counts.
    drop_first = itemgetter(slice(1, None))
    continuation: list[dict[NGram, int]] = [Counter(map(drop_first, g)) for g in raw[1:]] + [{}]
    vocab.add(BOS)
    vocab.add(EOS)
    return NGramCounts(order, raw, continuation, frozenset(vocab), len(padded))
