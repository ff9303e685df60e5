"""ARPA text format reader/writer.

Layout: a ``\\data\\`` header with per-order entry counts, then one
``\\N-grams:`` section per order with ``logprob<TAB>w1 .. wN<TAB>backoff``
lines (no backoff field at the top order), then ``\\end\\``.  The reader also
accepts files that omit zero backoffs, as external toolkits do.  Values are
rendered with 4 decimals, so a write/read round trip preserves them to 1e-4.
Output is sorted and fully deterministic.  The writer also compiles the
scorer tables of what it wrote, which ``train`` stores beside the file.
"""

from __future__ import annotations

import math
import re
from itertools import islice, repeat
from typing import IO, Iterable

from ..kernels.tables import ScorerTables, TableBuilder
from .counts import LOG_FLOOR, UNK, NGram
from .model import NGramModel


class MalformedArpa(ValueError):
    def __init__(self, lineno: int, reason: str):
        super().__init__("line %d: %s" % (lineno, reason))
        self.lineno = lineno


def write_arpa(model: NGramModel, stream: IO[str]) -> ScorerTables:
    """Write ``model`` as ARPA text and return the scorer tables of the text.

    Each value is parsed back from the text written for it and fed to the
    table builder in the order of the text, so the tables equal
    ``build_tables(read_arpa(text))`` without reading the text again.
    """
    by_order: list[list[NGram]] = [[] for _ in range(model.order)]
    for g in model.logprobs:
        by_order[len(g) - 1].append(g)
    for grams in by_order:
        grams.sort()
    logprobs, backoffs = model.logprobs, model.backoffs
    # read_arpa's vocabulary: the unigrams, with <unk> as the OOV score
    builder = TableBuilder(model.order, [g[0] for g in by_order[0] if g[0] != UNK])

    weights = []  # the backoff fields as read_arpa would parse them, section by section
    stream.write("\\data\\\n")
    for k in range(1, model.order + 1):
        stream.write("ngram %d=%d\n" % (k, len(by_order[k - 1])))
    for k, grams in enumerate(by_order, start=1):
        stream.write("\n\\%d-grams:\n" % k)
        lps = list(map("%.4f".__mod__, map(logprobs.__getitem__, grams)))
        if k < model.order:
            bos = list(map("%.4f".__mod__, map(backoffs.get, grams, repeat(0.0))))
            stream.writelines(map("%s\t%s\t%s\n".__mod__, zip(lps, map(" ".join, grams), bos)))
            weights.append(list(map(float, bos)))
        else:
            stream.writelines(map("%s\t%s\n".__mod__, zip(lps, map(" ".join, grams))))
        builder.add_logprobs(grams, map(float, lps))
    stream.write("\n\\end\\\n")
    for grams, section in zip(by_order, weights):
        builder.add_backoffs(grams, section)
    unk = logprobs.get((UNK,))
    return builder.tables(LOG_FLOOR if unk is None else float("%.4f" % unk))


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


def write_arpa_file(model: NGramModel, path) -> ScorerTables:
    with open(path, "w", encoding="utf-8") as fh:
        return write_arpa(model, fh)


def _next_content(lines) -> tuple[int, str]:
    for lineno, raw in lines:
        line = raw.strip()
        if line:
            return lineno, line
    raise MalformedArpa(0, "empty stream")
