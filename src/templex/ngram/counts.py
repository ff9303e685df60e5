"""N-gram counting with sentence padding and Kneser-Ney continuation counts.

Every sequence is padded with ``order - 1`` beginning-of-sentence symbols and
one end-of-sentence symbol, and all k-grams for k <= order are counted from
the padded form.  Continuation counts (number of distinct one-token left
extensions) are derived for every order below the top; they are the counts
the lower-order smoothed distributions are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
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
    if order < 1:
        raise ValueError("order must be >= 1, got %d" % order)
    raw: list[dict[NGram, int]] = [dict() for _ in range(order)]
    vocab: set[str] = set()
    nseq = 0
    pad = (BOS,) * (order - 1)
    for seq in sequences:
        toks = tuple(seq)
        if not toks:
            raise ValueError("empty sequence at position %d" % nseq)
        vocab.update(toks)
        padded = pad + toks + (EOS,)
        nseq += 1
        for k in range(1, order + 1):
            grams = raw[k - 1]
            for i in range(len(padded) - k + 1):
                g = padded[i : i + k]
                grams[g] = grams.get(g, 0) + 1
    if nseq == 0:
        raise EmptyCorpus("no sequences to count")
    continuation: list[dict[NGram, int]] = [dict() for _ in range(order)]
    for k in range(1, order):
        cont = continuation[k - 1]
        # Raw (k+1)-gram types are distinct (left-extension, k-gram) pairs.
        for g in raw[k]:
            suffix = g[1:]
            cont[suffix] = cont.get(suffix, 0) + 1
    vocab.add(BOS)
    vocab.add(EOS)
    return NGramCounts(order, raw, continuation, frozenset(vocab), nseq)
