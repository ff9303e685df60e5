"""Template factoring: replace rare words with their POS gap.

Two thresholding strategies, both strict comparisons:

* absolute -- gap every word whose corpus count is below the threshold;
* relative -- gap every word whose frequency rank is above the threshold
  (rank 1 is the most frequent word, so numerically larger means rarer).

Words missing from the count table gap under either strategy.  A gapped
word becomes the string ``__POS__`` of its corpus POS tag, so templates and
the token stream stay plain strings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .corpus import AnnotatedSentence, CountTable, Template, TemplateInventory

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


def factor_token(word: str, pos: str, table: CountTable, policy: FactorPolicy) -> str:
    """The word itself, or its gap ``__POS__`` when the policy gaps it."""
    if policy.gaps(word, table):
        return "__%s__" % pos
    return word


_GAP_RE = re.compile(r"^__(.+)__$")


def bare_factors(surface: str) -> str:
    """Display form: gaps shown as their bare POS (``__NN__`` -> ``NN``)."""
    return " ".join(m.group(1) if (m := _GAP_RE.match(tok)) else tok for tok in surface.split(" "))


def _factor_template(t: Template, table: CountTable, policy: FactorPolicy) -> Template:
    # A gap is no corpus word, so it counts 0 and re-gaps to itself.
    items = tuple(factor_token(w, p, table, policy) for w, p in zip(t.items, t.pos, strict=True))
    return Template(items, t.tag, t.count, t.pos)


def factor_inventory(
    inv: TemplateInventory, table: CountTable, policy: FactorPolicy
) -> TemplateInventory:
    """Factor every template, merging any that become identical."""
    index: dict[Template, int] = {}
    merged: list[Template] = []
    counts: list[int] = []
    remap: list[int] = []
    for t in inv.templates:
        ft = _factor_template(t, table, policy)
        at = index.get(ft)
        if at is None:
            at = len(merged)
            index[ft] = at
            merged.append(ft)
            counts.append(0)
        counts[at] += t.count
        remap.append(at)
    templates = [Template(t.items, t.tag, c, t.pos) for t, c in zip(merged, counts)]
    sequences = [tuple(remap[i] for i in seq) for seq in inv.sentence_sequences]
    return TemplateInventory(templates, sequences, inv.total)


def factored_token_stream(
    sentences: Iterable[AnnotatedSentence], table: CountTable, policy: FactorPolicy
) -> list[list[str]]:
    """Render each sentence with rare words gapped, for token-model training."""
    return [
        [factor_token(t.surface, t.pos, table, policy) for t in s.tokens]
        for s in sentences
    ]
