"""Interpolated modified Kneser-Ney estimation.

Three discounts per order (for counts of 1, 2, and 3+), estimated from
count-of-count statistics:

    Y  = n1 / (n1 + 2*n2)
    D1 = 1 - 2*Y*n2/n1,  D2 = 2 - 3*Y*n3/n2,  D3+ = 3 - 4*Y*n4/n3

where n1..n4 are taken over the counts actually used at that order (raw
window counts at the top, continuation counts below).  If any of n1..n4 is
zero the statistics are too sparse for the formulas and all three discounts
fall back to 0.5.

The smoothed distribution at each order is

    P(w|h) = max(c(hw) - D(c(hw)), 0) / c(h*) + gamma(h) * P'(w|h')

with gamma(h) the discounted mass of context h and P' the next-lower-order
distribution; the unigram level interpolates with the uniform distribution
over the vocabulary so that no probability is ever zero.  The result is
stored in backoff form: each seen n-gram keeps its full interpolated
probability and each seen context keeps gamma as its backoff weight, so a
standard longest-match backoff walk reproduces the interpolated model
exactly.

Estimation consumes the counts: each order's count map is dropped from
``counts.used`` once that order's probabilities are stored, so the top
order is estimated without the lower orders' maps.  A caller that reads the
counts after training passes a copy.
"""

from __future__ import annotations

import math

from .counts import BOS, UNK, NGram, NGramCounts
from .model import NGramModel

_CLAMP_EPS = 1e-6
_FALLBACK = (0.5, 0.5, 0.5)
# A context's numbers of seen continuations with a count of 1, of 2 and of 3
# or more, packed 40 bits apart in one int (see ``_kind`` and ``_seen_mass``):
# one int a context where a list of its counts would take a list object.
_FIELD = (1 << 40) - 1


# (D1, D2, D3+) per order; index 0 is the unigram level
Discounts = tuple[tuple[float, float, float], ...]


def _order_discounts(n1: int, n2: int, n3: int, n4: int) -> tuple[float, float, float]:
    if n1 == 0 or n2 == 0 or n3 == 0 or n4 == 0:
        return _FALLBACK
    y = n1 / (n1 + 2.0 * n2)
    raw = (
        1.0 - 2.0 * y * n2 / n1,
        2.0 - 3.0 * y * n3 / n2,
        3.0 - 4.0 * y * n4 / n3,
    )
    # The lower clamp is epsilon rather than zero: a zero discount can give a
    # context zero discount mass and therefore a zero (log -inf) backoff
    # weight.  Keeping every discount strictly inside (0, k) keeps every
    # backoff weight finite.
    return tuple(
        min(max(d, _CLAMP_EPS), cap - _CLAMP_EPS) for d, cap in zip(raw, (1.0, 2.0, 3.0))
    )


def estimate_discounts(counts: NGramCounts) -> Discounts:
    return tuple(_order_discounts(*counts.count_of_counts(k)) for k in range(1, counts.order + 1))


def _discount_for(c: int, d: tuple[float, float, float]) -> float:
    if c == 0:
        return 0.0
    if c == 1:
        return d[0]
    if c == 2:
        return d[1]
    return d[2]


def train_kn(counts: NGramCounts, discounts: Discounts) -> NGramModel:
    """Estimate the model; see the module docstring for the formulation.

    Consumes ``counts``: every entry of ``counts.used`` is ``None`` on
    return.  Pass a copy to keep the counts.
    """
    order = counts.order
    vocab = counts.vocab
    nvocab = len(vocab)
    probs: dict[NGram, float] = {}
    bows: dict[NGram, float] = {}

    # Unigram level: discounted used counts interpolated with uniform 1/V.
    d1 = discounts[0]
    used1 = counts.used[0]
    total = sum(used1.values())
    seen1 = _seen_mass(sum(map(_kind, used1.values())), d1)
    gamma1 = seen1 / total
    uniform = 1.0 / nvocab
    for w in sorted(vocab):
        c = used1.get((w,), 0)
        probs[(w,)] = max(c - _discount_for(c, d1), 0.0) / total + gamma1 * uniform
    unk_p = gamma1 * uniform
    probs[(UNK,)] = unk_p
    del used1
    counts.used[0] = None

    # Higher orders, bottom-up; lower-order probabilities are already final.
    for k in range(2, order + 1):
        bows.update(_add_order(probs, counts.used[k - 1], discounts[k - 1]))
        counts.used[k - 1] = None

    # Contexts of stored n-grams that were never themselves counted (only the
    # run of beginning-of-sentence symbols can do this) still need entries to
    # carry their backoff weight; they take the pure pass-through value.
    for h in sorted(bows, key=len):
        if h not in probs:
            probs[h] = bows.get(h[:-1], 1.0) * probs[h[1:]]

    # to log10 in place, so no second map of every gram is alive at once
    for table in (probs, bows):
        for g, p in table.items():
            table[g] = math.log10(p)
    return NGramModel(order, vocab, probs, bows, math.log10(unk_p))


def _add_order(
    probs: dict[NGram, float], usedk: dict[NGram, int], dk: tuple[float, float, float]
) -> dict[NGram, float]:
    """Store the probability of every order-k gram counted in ``usedk`` and
    return the backoff weight gamma of each of their contexts.  The per-order
    maps are local, so they are freed when the order is done."""
    denom: dict[NGram, int] = {}
    kinds: dict[NGram, int] = {}
    for g, c in usedk.items():
        h = g[:-1]
        denom[h] = denom.get(h, 0) + c
        kinds[h] = kinds.get(h, 0) + _kind(c)
    gamma: dict[NGram, float] = {
        h: _seen_mass(n, dk) / denom[h] for h, n in kinds.items()
    }
    del kinds
    for g, c in usedk.items():
        h = g[:-1]
        probs[g] = (
            max(c - _discount_for(c, dk), 0.0) / denom[h]
            + gamma[h] * probs[g[1:]]
        )
    return gamma


def _kind(c: int) -> int:
    """A continuation count as a term of a packed sum (see ``_FIELD``)."""
    return 1 if c == 1 else 1 << 40 if c == 2 else 1 << 80


def _seen_mass(n: int, d: tuple[float, float, float]) -> float:
    """Total discount mass removed from a context's seen continuations,
    given the packed sum ``n`` of their ``_kind``."""
    return d[0] * (n & _FIELD) + d[1] * (n >> 40 & _FIELD) + d[2] * (n >> 80)


def train(sequences, order: int) -> NGramModel:
    """Count, estimate discounts, and train in one call."""
    from .counts import count_ngrams

    counts = count_ngrams(sequences, order)
    return train_kn(counts, estimate_discounts(counts))
