"""ARPA text format reader/writer.

Layout: a ``\\data\\`` header with per-order entry counts, then one
``\\N-grams:`` section per order with ``logprob<TAB>w1 .. wN<TAB>backoff``
lines (no backoff field at the top order), then ``\\end\\``.  The reader also
accepts files that omit zero backoffs, as external toolkits do.  Values are
rendered with 4 decimals, so a write/read round trip preserves them to 1e-4.
Output is sorted and fully deterministic.
"""

from __future__ import annotations

import math
import re
from itertools import islice
from typing import IO, Iterable

from .counts import LOG_FLOOR, UNK, NGram
from .model import NGramModel


class MalformedArpa(ValueError):
    def __init__(self, lineno: int, reason: str):
        super().__init__("line %d: %s" % (lineno, reason))
        self.lineno = lineno


def write_arpa(model: NGramModel, stream: IO[str]) -> None:
    by_order: list[list[NGram]] = [[] for _ in range(model.order)]
    for g in model.logprobs:
        by_order[len(g) - 1].append(g)
    for grams in by_order:
        grams.sort()

    stream.write("\\data\\\n")
    for k in range(1, model.order + 1):
        stream.write("ngram %d=%d\n" % (k, len(by_order[k - 1])))
    for k in range(1, model.order + 1):
        stream.write("\n\\%d-grams:\n" % k)
        for g in by_order[k - 1]:
            line = "%.4f\t%s" % (model.logprobs[g], " ".join(g))
            if k < model.order:
                line += "\t%.4f" % model.backoffs.get(g, 0.0)
            stream.write(line + "\n")
    stream.write("\n\\end\\\n")


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
    order = 0
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            break
        m = _NGRAM_HEADER_RE.match(line)
        if not m:
            raise MalformedArpa(lineno, "bad count declaration %r" % line)
        k, n = int(m.group(1)), int(m.group(2))
        declared[k] = n
        order = max(order, k)
    if order == 0:
        raise MalformedArpa(lineno, "no ngram counts declared")

    logprobs: dict[NGram, float] = {}
    backoffs: dict[NGram, float] = {}
    found: dict[int, int] = {}  # distinct grams per order read so far
    vocab: set[str] = set()
    current = start = 0  # the section being read, and len(logprobs) when it began
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line[0] == "\\":  # a marker; entry lines skip the regex
            m = _SECTION_RE.match(line)
            if current > 0 and (m or line == "\\end\\"):
                # the section just read added its new grams as the last keys
                new = len(logprobs) - start
                found[current] = found.get(current, 0) + new
                if current == 1:
                    vocab.update(g[0] for g in islice(reversed(logprobs), new))
            if line == "\\end\\":
                current = -1
                break
            if m:
                current, start = int(m.group(1)), len(logprobs)
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
    if current != -1:
        raise MalformedArpa(lineno, "missing \\end\\ marker")
    for k, n in declared.items():
        if found.get(k) != n:
            raise MalformedArpa(lineno, "declared %d %d-grams, found %d" % (n, k, found.get(k, 0)))

    vocab.discard(UNK)
    return NGramModel(order, frozenset(vocab), logprobs, backoffs, logprobs.get((UNK,), LOG_FLOOR))


def read_arpa_file(path) -> NGramModel:
    with open(path, encoding="utf-8") as fh:
        return read_arpa(fh)


def write_arpa_file(model: NGramModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_arpa(model, fh)


def _next_content(lines) -> tuple[int, str]:
    for lineno, raw in lines:
        line = raw.strip()
        if line:
            return lineno, line
    raise MalformedArpa(0, "empty stream")
