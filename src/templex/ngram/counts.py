"""N-gram counting with sentence padding and Kneser-Ney continuation counts.

Every sequence is padded with ``order - 1`` beginning-of-sentence symbols and
one end-of-sentence symbol.  Only the counts modified Kneser-Ney reads are
kept: raw window counts at the top order, and below it the continuation
counts (number of distinct one-token left extensions), which the
lower-order smoothed distributions are built from.  The top order is
counted from the padded sequences once; each lower order's gram types are
derived from the order above.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

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
    # used[k-1] holds the counts the order-k distribution is estimated from:
    # raw window counts at the top order, continuation counts below;
    # train_kn sets each to None once it has estimated that order
    used: list[dict[NGram, int] | None]
    vocab: frozenset[str]  # all sequence tokens plus BOS/EOS

    def count_of_counts(self, k: int) -> tuple[int, int, int, int]:
        """(n1, n2, n3, n4) over the used counts at order k."""
        n = [0, 0, 0, 0]
        for c in self.used[k - 1].values():
            if c <= 4:
                n[c - 1] += 1
        return tuple(n)


def _shorter(grams: Iterable[NGram]) -> Iterator[NGram]:
    """The one-shorter windows of a padded sequence, from its windows.

    Each window yields its prefix, and the last window of a sequence (the
    only one ending in EOS) its suffix as well.  Fed the distinct grams in
    order of first occurrence, this yields every shorter gram in order of
    first occurrence: a repeat's windows have all been seen before it.
    """
    for g in grams:
        yield g[:-1]
        if g[-1] == EOS:
            yield g[1:]


def count_ngrams(sequences: Iterable[Sequence[str]], order: int) -> NGramCounts:
    """Count the padded top-order grams and the continuation counts below.

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
    # zip of order shifted copies of a sequence yields its grams left to right
    grams = Counter(chain.from_iterable(zip(*[p[j:] for j in range(order)]) for p in padded))
    del padded
    used: list[dict[NGram, int]] = [grams]
    drop_first = itemgetter(slice(1, None))
    for k in range(order - 1, 0, -1):
        # The (k+1)-gram types are distinct (left-extension, k-gram) pairs,
        # so counting their suffixes gives the order-k continuation counts.
        used.append(Counter(map(drop_first, grams)))
        if k > 1:
            grams = dict.fromkeys(_shorter(grams))
    used.reverse()
    vocab.add(BOS)
    vocab.add(EOS)
    return NGramCounts(order, used, frozenset(vocab))
