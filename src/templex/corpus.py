"""Chunk-annotated corpus ingestion.

Reads 3-column CoNLL-2000-style text (``surface pos chunk``, blank line
between sentences) into sentences, each a tuple of tokens, extracts every
maximal chunk span as a template, and counts the words that factoring
decides on.  Out-of-chunk (``O``) tokens become single-token templates with
tag ``O`` so that each sentence is fully covered by its template sequence.

A template is a tuple of strings: words, and gaps written ``__POS__``
(which factoring introduces).  The same strings go into ``inventory.tsv``
and into every chromosome surface, so no corpus word may have a gap's form.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .ngram.counts import RESERVED

_CHUNK_RE = re.compile(r"^(?:O|[BI]-.+)$")
# the form of a gap, ``__POS__``; group 1 is the POS
GAP_RE = re.compile(r"^__(.+)__$")


class MalformedLine(ValueError):
    """Input line does not have the expected 3 columns or a legal chunk tag."""

    def __init__(self, lineno: int, text: str, reason: str):
        super().__init__("line %d: %s (%r)" % (lineno, reason, text))
        self.lineno = lineno


class IllegalBIO(ValueError):
    """An I- tag appears without a matching B-/I- predecessor."""

    def __init__(self, lineno: int, label: str):
        super().__init__("line %d: I-%s without preceding B-%s/I-%s" % (lineno, label, label, label))
        self.lineno = lineno


class AnnotatedToken(NamedTuple):
    surface: str
    pos: str
    chunk: str


AnnotatedSentence = tuple[AnnotatedToken, ...]


@dataclass(frozen=True, slots=True)
class Template:
    """A chunk-derived sequence of words and ``__POS__`` gaps; the atomic
    unit of combination.

    ``pos`` holds the corpus POS tag of each item, so factoring knows what
    to gap a word to; it is empty for templates read from ``inventory.tsv``.
    Identity (hashing/equality) is on ``(items, tag, pos)``; ``count`` is the
    merged occurrence count within one inventory.

    An inventory holds tens of thousands of templates, so a template has
    slots and no ``__dict__``, and equal strings are one object across a
    mined inventory: ``parse_conll`` maps each word and tag to the first
    object seen with its value, and factoring interns its gaps.
    """

    items: tuple[str, ...]
    tag: str
    count: int = field(default=1, compare=False)
    pos: tuple[str, ...] = ()


@dataclass
class TemplateInventory:
    """Unique templates with counts, plus each sentence's template sequence.

    ``sentence_sequences`` holds, per input sentence, the indices into
    ``templates`` of the chunks covering it, in order.  A mined inventory's
    ``templates`` is a list; a loaded one's makes each template when it is
    read (see ``parse_inventory_lines``).
    """

    templates: Sequence[Template]
    sentence_sequences: list[tuple[int, ...]]

    def signature_sequences(self) -> list[tuple[str, ...]]:
        """Chunk-tag sequence of every sentence (training data for the signature model)."""
        return [
            tuple(self.templates[i].tag for i in seq)
            for seq in self.sentence_sequences
        ]


def parse_conll(lines: Iterable[str]) -> list[AnnotatedSentence]:
    """Parse 3-column chunker output into sentences.

    Raises MalformedLine for wrong column counts, illegal chunk tags, a
    word or chunk label that is a reserved model symbol (``<s>``, ``</s>``,
    ``<unk>``) and a word of a gap's form ``__X__`` (it would be the same
    string as the gap of every factored word of POS ``X``), and IllegalBIO
    for I- tags with no matching predecessor.  A POS of any form is legal.
    Trailing blank lines are ignored.
    """
    sentences: list[AnnotatedSentence] = []
    current: list[AnnotatedToken] = []
    # each word, POS and chunk tag already seen (and checked), mapped to its
    # first object: tokens share one string per distinct value, so later
    # tuple compares and dict lookups of equal tokens succeed on identity
    words: dict[str, str] = {}
    tags: dict[str, str] = {}
    chunks: dict[str, str] = {}
    prev_chunk = "O"
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            if current:
                sentences.append(tuple(current))
                current = []
            prev_chunk = "O"
            continue
        cols = line.split()
        if len(cols) != 3:
            raise MalformedLine(lineno, raw.rstrip("\n"), "expected 3 columns, got %d" % len(cols))
        surface, pos, chunk = cols
        seen = chunks.get(chunk)
        if seen is None:
            if not _CHUNK_RE.match(chunk):
                raise MalformedLine(lineno, raw.rstrip("\n"), "illegal chunk tag %r" % chunk)
            if chunk[2:] in RESERVED:
                raise MalformedLine(lineno, raw.rstrip("\n"), "chunk label is a reserved model symbol")
            seen = chunks[chunk] = chunk
        chunk = seen
        seen = words.get(surface)
        if seen is None:
            if surface in RESERVED:
                raise MalformedLine(lineno, raw.rstrip("\n"), "word is a reserved model symbol")
            if GAP_RE.match(surface):
                raise MalformedLine(lineno, raw.rstrip("\n"), "word has the form of a factor gap")
            seen = words[surface] = surface
        surface = seen
        pos = tags.setdefault(pos, pos)
        if chunk.startswith("I-"):
            label = chunk[2:]
            if prev_chunk not in ("B-" + label, "I-" + label):
                raise IllegalBIO(lineno, label)
        current.append(AnnotatedToken(surface, pos, chunk))
        prev_chunk = chunk
    if current:
        sentences.append(tuple(current))
    return sentences


def parse_conll_file(path) -> list[AnnotatedSentence]:
    with open(path, encoding="utf-8") as fh:
        return parse_conll(fh)


def _chunks(sentence: AnnotatedSentence) -> Iterator[tuple[str, list[AnnotatedToken]]]:
    """Yield (tag, tokens) for each maximal B-X (I-X)* span and each O token."""
    span: list[AnnotatedToken] = []
    span_tag = ""
    for tok in sentence:
        if tok.chunk.startswith("I-"):
            span.append(tok)
            continue
        if span:
            yield span_tag, span
            span = []
        if tok.chunk == "O":
            yield "O", [tok]
        else:  # B-X
            span_tag = tok.chunk[2:]
            span = [tok]
    if span:
        yield span_tag, span


def extract_templates(sentences: Iterable[AnnotatedSentence]) -> TemplateInventory:
    """Segment sentences into chunk templates and merge identical ones."""
    index: dict[tuple[tuple[str, ...], str, tuple[str, ...]], int] = {}
    counts: list[int] = []
    sequences: list[tuple[int, ...]] = []
    labels: dict[str, str] = {}  # one string per chunk label, as parse_conll does for tokens
    for sentence in sentences:
        seq: list[int] = []
        for tag, toks in _chunks(sentence):
            words, pos, _ = zip(*toks)
            key = (words, labels.setdefault(tag, tag), pos)
            at = index.get(key)
            if at is None:
                at = index[key] = len(counts)
                counts.append(0)
            counts[at] += 1
            seq.append(at)
        sequences.append(tuple(seq))
    # dicts keep insertion order: one Template per key, in first-occurrence order
    templates = [Template(items, tag, c, pos) for (items, tag, pos), c in zip(index, counts)]
    return TemplateInventory(templates, sequences)


def token_counts(sentences: Iterable[AnnotatedSentence]) -> Counter[str]:
    """Surface-word frequencies over the whole corpus."""
    counter: Counter[str] = Counter()
    for sentence in sentences:
        counter.update(t.surface for t in sentence)
    return counter


def inventory_lines(inv: TemplateInventory) -> Iterator[str]:
    """Serialize an inventory as ``count<TAB>tag<TAB>item item ...`` lines.

    Sorted by descending count, then lexicographically; templates with the
    same tag and items, differing only in their corpus POS, are aggregated.
    """
    agg: dict[tuple[str, str], int] = {}
    for t in inv.templates:
        key = (t.tag, " ".join(t.items))
        agg[key] = agg.get(key, 0) + t.count
    for (tag, items), count in sorted(agg.items(), key=lambda kv: (-kv[1], kv[0])):
        yield "%d\t%s\t%s" % (count, tag, items)


def _fields(lineno: int, line: str) -> tuple[tuple[str, ...], str, int]:
    """The items, tag and count of inventory line ``lineno`` (without its
    newline); raises MalformedLine as ``parse_inventory_lines`` documents."""
    cols = line.split("\t")
    if len(cols) != 3:
        raise MalformedLine(lineno, line, "expected 3 tab-separated fields, got %d" % len(cols))
    count_s, tag, items_s = cols
    try:
        count = int(count_s)
    except ValueError:
        raise MalformedLine(lineno, line, "bad count %r" % count_s) from None
    if count < 1:
        raise MalformedLine(lineno, line, "count must be >= 1, got %d" % count)
    if tag.split() != [tag]:
        raise MalformedLine(lineno, line, "tag must be one word, got %r" % tag)
    items = tuple(items_s.split(" "))
    if "" in items:
        raise MalformedLine(lineno, line, "empty item")
    if tag in RESERVED or not RESERVED.isdisjoint(items):
        raise MalformedLine(lineno, line, "tag or item is a reserved model symbol")
    return items, tag, count


# The canonical form of an inventory line, which ``inventory_lines`` writes:
# a count of 1 to 18 digits without a sign or a leading zero, a tag with no
# whitespace, and items without a tab joined by single spaces, neither tag
# nor item a reserved model symbol.  ``_fields`` accepts every such line.
# ``_UNVOUCHED_RE`` finds each other non-blank line, for ``_fields`` to judge:
# it may still be valid, as a count of ``+3`` or ``02`` is.  A longer count
# is left to ``_fields`` too, because int() may refuse one of thousands of
# digits.
_RESERVED = "|".join(map(re.escape, sorted(RESERVED)))
_ITEM = r"(?!(?:%s)(?: |$))[^ \t\n]+" % _RESERVED
_UNVOUCHED_RE = re.compile(
    r"^(?![1-9][0-9]{0,17}\t(?!(?:%s)\t)\S+\t%s(?: %s)*$)[^\n]" % (_RESERVED, _ITEM, _ITEM), re.MULTILINE
)


class _LoadedTemplates(Sequence[Template]):
    """The templates of an inventory file's text: ``[i]`` parses the i-th
    non-blank line, which begins at ``starts[i]``, into a new Template, so
    the inventory holds no object per line, and a slice gives a list of
    templates.  Every line was checked when the text was loaded."""

    __slots__ = ("_text", "_starts")

    def __init__(self, text: str, starts: array):
        self._text = text
        self._starts = starts

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        text = self._text
        start = self._starts[i]
        end = text.find("\n", start)
        return Template(*_fields(0, text[start : end if end >= 0 else len(text)]))


def parse_inventory_lines(text: str) -> TemplateInventory:
    """Load a serialized inventory from its text.

    The text format carries no POS and no per-sentence sequences, so loaded
    templates have an empty ``pos`` and ``sentence_sequences`` is empty; that
    is all generation needs.  Lines end at a newline character alone, as a
    file read in text mode splits them; blank lines are skipped but counted
    in the line numbers of errors.  Every line is checked here: one pattern
    scan of the whole text finds each line that is not in the canonical form
    ``inventory_lines`` writes, and ``_fields``, the one rule for a line,
    judges each line the scan flags.  The inventory keeps the text and each
    line's start, and a template is made each time ``templates[i]`` is read.
    Raises MalformedLine for a wrong field count, a count that is not an
    integer >= 1, an empty tag or one containing whitespace, an empty item,
    or a tag or item that is a reserved model symbol (``<s>``, ``</s>``,
    ``<unk>``; a gap such as ``__<unk>__`` is legal).
    """
    lineno, at = 1, 0  # the number of the line that offset ``at`` is on
    while (flagged := _UNVOUCHED_RE.search(text, at)) is not None:
        start = flagged.start()
        lineno += text.count("\n", at, start)
        at = text.find("\n", start)
        if at < 0:
            at = len(text)
        _fields(lineno, text[start:at])
    starts = array("q", map(re.Match.start, re.finditer(r"^[^\n]", text, re.MULTILINE)))
    return TemplateInventory(_LoadedTemplates(text, starts), [])
