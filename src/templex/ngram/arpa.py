"""ARPA text format reader/writer.

Layout: a ``\\data\\`` header with per-order entry counts, then one
``\\N-grams:`` section per order with ``logprob<TAB>w1 .. wN<TAB>backoff``
lines (no backoff field at the top order), then ``\\end\\``.  The reader also
accepts files that omit zero backoffs, as external toolkits do.  Values are
rendered with 4 decimals, so a write/read round trip preserves them to 1e-4.
Output is sorted and fully deterministic.  The writer also compiles the
scorer tables of what it wrote, which ``train`` stores beside the file.  It
formats, writes and parses back each section in blocks of ``BLOCK`` grams,
so only one block's strings are alive at a time; the block size changes
neither the text nor the tables.  Every section streams alike: each block's
grams, log probabilities and backoff weights go to the table builder
together, which orders them as ``build_tables`` does.

The writer consumes the model: it takes the model's maps, leaving
``logprobs`` and ``backoffs`` as ``None``, and frees each block's grams and
values once the block is written, so the model is not held whole beside the
tables being built and no gram outlives its section.  A caller that uses
the model after writing it passes a copy.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import repeat
from typing import IO, Iterable, Iterator

from ..kernels.tables import ScorerTables, TableBuilder
from .counts import LOG_FLOOR, UNK, NGram
from .model import NGramModel


class MalformedArpa(ValueError):
    def __init__(self, lineno: int, reason: str):
        super().__init__("line %d: %s" % (lineno, reason))
        self.lineno = lineno


# grams formatted, written and parsed back at a time
BLOCK = 4096


def write_arpa(model: NGramModel, stream: IO[str]) -> ScorerTables:
    """Write ``model`` as ARPA text and return the scorer tables of the text.

    Each section is written in blocks of ``BLOCK`` grams.  A block's lines
    are formatted and written, then each value is parsed back from the text
    written for it, and the block's grams go to the table builder with their
    log probabilities and backoff weights; only then is the next block
    formatted.  So the tables equal ``build_tables(read_arpa(text))``
    without reading the text again, and no section's text is held whole.

    Consumes ``model``: its ``logprobs`` and ``backoffs`` are ``None`` on
    return, so a later use of them raises rather than scoring an empty
    model.  Pass a copy to keep the model.
    """
    logprobs, backoffs = model.logprobs, model.backoffs
    model.logprobs = model.backoffs = None
    order = model.order
    # a comprehension, so no loop variable keeps a gram alive
    by_order = [sorted(g for g in logprobs if len(g) == k) for k in range(1, order + 1)]
    # each order's values in the order of its grams; the maps go after this
    lp_values = [list(map(logprobs.__getitem__, grams)) for grams in by_order]
    bo_values = [list(map(backoffs.get, grams, repeat(0.0))) for grams in by_order[:-1]]
    unk = logprobs.get((UNK,))
    del logprobs, backoffs
    # read_arpa's vocabulary: the unigrams, with <unk> as the OOV score
    builder = TableBuilder(order, [g[0] for g in by_order[0] if g[0] != UNK])

    # each distinct field text parsed once, so equal values share one float
    # ("-0.0000" and "0.0000" are distinct texts: -0.0 stays -0.0)
    parsed: dict[str, float] = {}
    stream.write("\\data\\\n")
    for k in range(1, order + 1):
        stream.write("ngram %d=%d\n" % (k, len(by_order[k - 1])))
    for k, grams in enumerate(by_order, start=1):
        stream.write("\n\\%d-grams:\n" % k)
        bo_blocks = _take(bo_values[k - 1]) if k < order else repeat(None)
        for block, lp, bo in zip(_take(grams), _take(lp_values[k - 1]), bo_blocks):
            lps = list(map("%.4f".__mod__, lp))
            if bo is None:
                stream.writelines(map("%s\t%s\n".__mod__, zip(lps, map(" ".join, block))))
                weights = repeat(None)
            else:
                bos = list(map("%.4f".__mod__, bo))
                stream.writelines(map("%s\t%s\t%s\n".__mod__, zip(lps, map(" ".join, block), bos)))
                weights = _parse(bos, parsed)
            builder.add(block, _parse(lps, parsed), weights)
    stream.write("\n\\end\\\n")
    return builder.tables(LOG_FLOOR if unk is None else float("%.4f" % unk))


def _take(items: list) -> Iterator[list]:
    """``items`` in blocks of ``BLOCK`` from the front, each block removed
    from ``items`` as it is taken, so a block is freed once it is used."""
    while items:
        block = items[:BLOCK]
        del items[:BLOCK]
        yield block


def _parse(texts: list[str], parsed: dict[str, float]) -> Iterator[float]:
    """``float`` of each text, parsing each text not yet in ``parsed`` once."""
    new = set(texts).difference(parsed)
    parsed.update(zip(new, map(float, new)))
    return map(parsed.__getitem__, texts)


_NGRAM_HEADER_RE = re.compile(r"^ngram (\d+)=(\d+)$")
_SECTION_RE = re.compile(r"^\\(\d+)-grams:$")


def read_arpa(stream: Iterable[str]) -> NGramModel:
    """Parse an ARPA file (ours or an external toolkit's) into a model.

    A ``<unk>`` unigram becomes the model's out-of-vocabulary score rather
    than a vocabulary member.  A NaN, a log probability above 0 or a backoff
    weight of +inf raises MalformedArpa with its line number.
    """
    lines = enumerate(stream, start=1)
    declared: dict[int, int] = {}

    lineno, line = _next_content(lines)
    if line != "\\data\\":
        raise MalformedArpa(lineno, "expected \\data\\ header, got %r" % line)
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            break
        m = _NGRAM_HEADER_RE.match(line)
        if not m:
            raise MalformedArpa(lineno, "bad count declaration %r" % line)
        k, n = int(m.group(1)), int(m.group(2))
        declared[k] = n
    order = max(declared, default=0)
    if order == 0:
        raise MalformedArpa(lineno, "no ngram counts declared")

    logprobs: dict[NGram, float] = {}
    backoffs: dict[NGram, float] = {}
    sections: set[int] = set()
    current = 0  # the section being read
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line[0] == "\\":  # a marker; entry lines skip the regex
            if line == "\\end\\":
                break
            m = _SECTION_RE.match(line)
            if m:
                current = int(m.group(1))
                sections.add(current)
                if current not in declared:
                    raise MalformedArpa(lineno, "section \\%d-grams: was not declared" % current)
                continue
        if current < 1:
            raise MalformedArpa(lineno, "entry outside any n-gram section: %r" % line)
        parts = line.split()
        if len(parts) not in (current + 1, current + 2):
            raise MalformedArpa(
                lineno, "expected %d tokens plus probability, got %r" % (current, line)
            )
        try:
            lp = float(parts[0])
        except ValueError:
            raise MalformedArpa(lineno, "bad log probability %r" % parts[0]) from None
        if not lp <= 0.0:  # also catches NaN
            raise MalformedArpa(lineno, "log probability %r is not <= 0" % parts[0])
        gram = tuple(parts[1 : current + 1])
        logprobs[gram] = lp
        if len(parts) == current + 2:
            try:
                bo = float(parts[current + 1])
            except ValueError:
                raise MalformedArpa(lineno, "bad backoff weight %r" % parts[current + 1]) from None
            if not bo < math.inf:  # also catches NaN
                raise MalformedArpa(lineno, "backoff weight %r is not < +inf" % parts[current + 1])
            backoffs[gram] = bo
    else:
        raise MalformedArpa(lineno, "missing \\end\\ marker")
    # each section's distinct grams, as a section's grams have its length
    found = Counter(map(len, logprobs))
    for k, n in declared.items():
        if k not in sections:
            raise MalformedArpa(lineno, "declared %d %d-grams, found 0: no \\%d-grams: section" % (n, k, k))
        if found[k] != n:
            raise MalformedArpa(lineno, "declared %d %d-grams, found %d" % (n, k, found[k]))

    vocab = frozenset(g[0] for g in logprobs if len(g) == 1 and g[0] != UNK)
    return NGramModel(order, vocab, logprobs, backoffs, logprobs.get((UNK,), LOG_FLOOR))


def read_arpa_file(path) -> NGramModel:
    with open(path, encoding="utf-8") as fh:
        return read_arpa(fh)


def write_arpa_file(model: NGramModel, path) -> ScorerTables:
    with open(path, "w", encoding="utf-8") as fh:
        return write_arpa(model, fh)


def _next_content(lines) -> tuple[int, str]:
    for lineno, raw in lines:
        line = raw.strip()
        if line:
            return lineno, line
    raise MalformedArpa(0, "empty stream")
