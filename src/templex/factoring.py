"""Template factoring: replace rare words with their POS gap.

A policy decides once, from the corpus word counts, which words it keeps
(``FactorPolicy.kept``); every other word, seen or not, gaps.  Three modes:

* none -- keep every counted word, so templates stay fully lexical;
* absolute -- keep every word whose corpus count is at least the threshold;
* relative -- keep the ``threshold`` most frequent words, ties broken
  lexicographically (every word whose frequency rank is at most the
  threshold, rank 1 being the most frequent).

A gapped word becomes the string ``__POS__`` of its corpus POS tag, so
templates and the token stream stay plain strings.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import GAP_RE, AnnotatedSentence, Template, TemplateInventory

NONE = "none"
ABSOLUTE = "absolute"
RELATIVE = "relative"


@dataclass(frozen=True)
class FactorPolicy:
    mode: str  # NONE, ABSOLUTE or RELATIVE
    threshold: int = 0  # 0 for NONE, at least 1 otherwise

    def __post_init__(self):
        if self.mode not in (NONE, ABSOLUTE, RELATIVE):
            raise ValueError("unknown factoring mode %r" % self.mode)
        if self.mode == NONE:
            if self.threshold != 0:
                raise ValueError("mode none takes no threshold, got %d" % self.threshold)
        elif self.threshold < 1:
            raise ValueError("threshold must be >= 1, got %d" % self.threshold)

    def kept(self, counts: Mapping[str, int]) -> frozenset[str]:
        """The counted words this policy does not gap; every other word gaps."""
        if self.mode == NONE:
            return frozenset(counts)
        if self.mode == ABSOLUTE:
            return frozenset(w for w, c in counts.items() if c >= self.threshold)
        return frozenset(sorted(counts, key=lambda w: (-counts[w], w))[: self.threshold])


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


def factor_inventory(inv: TemplateInventory, kept: frozenset[str]) -> TemplateInventory:
    """Gap every word outside ``kept``, merging templates that become identical."""
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
    return TemplateInventory(templates, sequences)


def factored_token_stream(
    sentences: Iterable[AnnotatedSentence], kept: frozenset[str]
) -> list[list[str]]:
    """Render each sentence with every word outside ``kept`` gapped, for
    token-model training."""
    return [[w if w in kept else sys.intern("__%s__" % p) for w, p, _ in s] for s in sentences]
