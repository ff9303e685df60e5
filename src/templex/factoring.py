"""Template factoring: replace rare words with their POS gap.

Two thresholding strategies, both strict comparisons:

* absolute -- gap every word whose corpus count is below the threshold;
* relative -- gap every word whose frequency rank is above the threshold
  (rank 1 is the most frequent word, so numerically larger means rarer).

Words missing from the count table gap under either strategy, so a policy
is fixed, per table, by the set of table words it keeps (``FactorPolicy.kept``).
A gapped word becomes the string ``__POS__`` of its corpus POS tag, so
templates and the token stream stay plain strings.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

from .corpus import GAP_RE, AnnotatedSentence, CountTable, Template, TemplateInventory

ABSOLUTE = "absolute"
RELATIVE = "relative"


@dataclass(frozen=True)
class FactorPolicy:
    mode: str  # ABSOLUTE or RELATIVE
    threshold: int

    def __post_init__(self):
        if self.mode not in (ABSOLUTE, RELATIVE):
            raise ValueError("unknown factoring mode %r" % self.mode)
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1, got %d" % self.threshold)

    def gaps(self, word: str, table: CountTable) -> bool:
        if self.mode == ABSOLUTE:
            return table.count(word) < self.threshold
        return table.rank(word) > self.threshold

    def kept(self, table: CountTable) -> frozenset[str]:
        """The table words this policy does not gap; every other word gaps."""
        return frozenset(w for w in table.counts if not self.gaps(w, table))


def factor_token(word: str, pos: str, table: CountTable, policy: FactorPolicy) -> str:
    """The word itself, or its gap ``__POS__`` when the policy gaps it."""
    if policy.gaps(word, table):
        return "__%s__" % pos
    return word


def bare_factors(surface: str) -> str:
    """Display form: gaps shown as their bare POS (``__NN__`` -> ``NN``)."""
    return " ".join(m.group(1) if (m := GAP_RE.match(tok)) else tok for tok in surface.split(" "))


def _factor_template(t: Template, kept: frozenset[str]) -> tuple[str, ...]:
    """The items of ``t`` with every word outside ``kept`` gapped."""
    # A gap re-factors to itself: kept or not, it is ``__POS__`` of its own POS.
    # Gaps are interned, as in the token stream, so each POS has one gap string.
    return tuple(
        w if w in kept else sys.intern("__%s__" % p) for w, p in zip(t.items, t.pos, strict=True)
    )


def factor_inventory(
    inv: TemplateInventory, table: CountTable, policy: FactorPolicy
) -> TemplateInventory:
    """Factor every template, merging any that become identical."""
    kept = policy.kept(table)
    index: dict[tuple[tuple[str, ...], str, tuple[str, ...]], int] = {}
    counts: list[int] = []
    remap: list[int] = []
    for t in inv.templates:
        key = (_factor_template(t, kept), t.tag, t.pos)
        at = index.get(key)
        if at is None:
            at = index[key] = len(counts)
            counts.append(0)
        counts[at] += t.count
        remap.append(at)
    # dicts keep insertion order: one Template per key, in first-occurrence order
    templates = [Template(items, tag, c, pos) for (items, tag, pos), c in zip(index, counts)]
    sequences = [tuple(map(remap.__getitem__, seq)) for seq in inv.sentence_sequences]
    return TemplateInventory(templates, sequences, inv.total)


def factored_token_stream(
    sentences: Iterable[AnnotatedSentence], table: CountTable, policy: FactorPolicy
) -> list[list[str]]:
    """Render each sentence with rare words gapped, for token-model training."""
    kept = policy.kept(table)
    return [
        [w if w in kept else sys.intern("__%s__" % p) for w, p, _ in s.tokens]
        for s in sentences
    ]
