"""Independent reference implementations the tests validate against.

Everything in this file is written straight from the textbook definitions and
imports nothing from the package under test: counting is the obvious
quadratic window scan, factoring decides each word on its own count or rank,
smoothing is the literal recursive interpolation, ARPA scoring is the
standard recursive backoff rule over string tuples, and an inventory file is
parsed eagerly, one line at a time.
Slow and simple on purpose.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from types import SimpleNamespace

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
RESERVED = frozenset((BOS, EOS, UNK))


class OracleMalformedLine(ValueError):
    """A bad inventory line, with the message ``MalformedLine`` gives."""

    def __init__(self, lineno, text, reason):
        super().__init__("line %d: %s (%r)" % (lineno, reason, text))


def parse_inventory(lines):
    """(items, tag, count) of every non-blank line of an inventory file
    iterated line by line, in order; the eager loader the package had before
    it kept the file's text."""
    templates = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise OracleMalformedLine(lineno, line, "expected 3 tab-separated fields, got %d" % len(cols))
        count_s, tag, items_s = cols
        try:
            count = int(count_s)
        except ValueError:
            raise OracleMalformedLine(lineno, line, "bad count %r" % count_s) from None
        if count < 1:
            raise OracleMalformedLine(lineno, line, "count must be >= 1, got %d" % count)
        if tag.split() != [tag]:
            raise OracleMalformedLine(lineno, line, "tag must be one word, got %r" % tag)
        items = tuple(items_s.split(" "))
        if "" in items:
            raise OracleMalformedLine(lineno, line, "empty item")
        if tag in RESERVED or not RESERVED.isdisjoint(items):
            raise OracleMalformedLine(lineno, line, "tag or item is a reserved model symbol")
        templates.append((items, tag, count))
    return templates


def brute_count(sequences, order):
    """(raw, cont): raw[k] maps k-grams to window counts over padded
    sequences; cont[k] maps k-grams to their number of distinct one-token
    left extensions (k < order only).  Index 0 is unused."""
    raw = [Counter() for _ in range(order + 1)]
    for seq in sequences:
        padded = [BOS] * (order - 1) + list(seq) + [EOS]
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                raw[k][tuple(padded[i : i + k])] += 1
    cont = [Counter() for _ in range(order + 1)]
    for k in range(1, order):
        for g in raw[k + 1]:
            cont[k][g[1:]] += 1
    return raw, cont


def word_rank(word, counts):
    """1-based frequency rank of ``word`` among the counted words: rank 1 is
    the most frequent, ties broken lexicographically; an unseen word ranks
    past every threshold."""
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ranks = {w: i for i, (w, _) in enumerate(ordered, start=1)}
    return ranks.get(word, math.inf)


def factor_token(word, pos, counts, mode, threshold):
    """One word under the factoring rule: its gap ``__POS__`` when its count
    is below ``threshold`` (absolute) or its rank above it (relative), else
    the word itself.  Unseen words count 0 and so gap under either mode."""
    if mode == "absolute":
        gaps = counts.get(word, 0) < threshold
    else:
        gaps = word_rank(word, counts) > threshold
    return "__%s__" % pos if gaps else word


def chen_goodman(used_counts):
    """(D1, D2, D3+) from count-of-counts; 0.5s when the stats are degenerate."""
    n = Counter()
    for c in used_counts.values():
        if 1 <= c <= 4:
            n[c] += 1
    n1, n2, n3, n4 = n[1], n[2], n[3], n[4]
    if 0 in (n1, n2, n3, n4):
        return (0.5, 0.5, 0.5)
    y = n1 / (n1 + 2.0 * n2)
    ds = (1.0 - 2.0 * y * n2 / n1, 2.0 - 3.0 * y * n3 / n2, 3.0 - 4.0 * y * n4 / n3)
    return tuple(min(max(d, 1e-6), cap - 1e-6) for d, cap in zip(ds, (1.0, 2.0, 3.0)))


class NaiveKN:
    """Interpolated modified Kneser-Ney evaluated by direct recursion.

    P_1(w)    = (c'(w) - D)+ / T  +  (discount mass / T) * 1/V
    P_k(w|h)  = (c(hw) - D)+ / c(h.)  +  gamma(h) * P_{k-1}(w|h')

    with raw window counts at the top order and continuation counts below,
    and P_k falling through to P_{k-1} when the context was never seen.
    """

    def __init__(self, sequences, order):
        self.order = order
        raw, cont = brute_count(sequences, order)
        self.used = [None] * (order + 1)
        for k in range(1, order + 1):
            self.used[k] = raw[k] if k == order else cont[k]
        vocab = set()
        for seq in sequences:
            vocab.update(seq)
        vocab.update((BOS, EOS))
        self.vocab = vocab
        self.discounts = [None] + [chen_goodman(self.used[k]) for k in range(1, order + 1)]
        self.ctx_total = [None] * (order + 1)
        self.ctx_mass = [None] * (order + 1)
        for k in range(1, order + 1):
            total = Counter()
            mass = defaultdict(float)
            for g, c in self.used[k].items():
                total[g[:-1]] += c
                mass[g[:-1]] += self._disc(c, k)
            self.ctx_total[k] = total
            self.ctx_mass[k] = mass

    def _disc(self, c, k):
        if c == 0:
            return 0.0
        d1, d2, d3 = self.discounts[k]
        return d1 if c == 1 else d2 if c == 2 else d3

    def prob(self, context, token):
        context = tuple(context)
        if self.order > 1:
            context = context[len(context) - (self.order - 1) :] if len(context) >= self.order else context
        else:
            context = ()
        return self._p(len(context) + 1, context, token)

    def _p(self, k, h, w):
        if k == 1:
            used = self.used[1]
            total = self.ctx_total[1][()]
            c = used.get((w,), 0)
            gamma = self.ctx_mass[1][()] / total
            return max(c - self._disc(c, 1), 0.0) / total + gamma * (1.0 / len(self.vocab))
        lower = self._p(k - 1, h[1:], w)
        total = self.ctx_total[k].get(h, 0)
        if total == 0:
            return lower
        c = self.used[k].get(h + (w,), 0)
        gamma = self.ctx_mass[k][h] / total
        return max(c - self._disc(c, k), 0.0) / total + gamma * lower

    def logprob(self, context, token):
        return math.log10(self.prob(context, token))

    def seq_logprob(self, tokens, boundaries):
        ctx = (BOS,) * (self.order - 1) if boundaries else ()
        total = 0.0
        for w in list(tokens) + ([EOS] if boundaries else []):
            total += self.logprob(ctx, w)
            ctx = (ctx + (w,))[-(self.order - 1) :] if self.order > 1 else ()
        return total


def read_arpa_table(path):
    """Minimal ARPA read: (order, logprobs, backoffs) over string tuples."""
    logprobs, backoffs = {}, {}
    order = 0
    section = 0
    with open(path, encoding="latin-1") as fh:
        for line in fh:
            line = line.strip()
            if not line or line in ("\\data\\", "\\end\\"):
                section = 0
                continue
            if line.startswith("ngram "):
                continue
            if line.endswith("-grams:") and line.startswith("\\"):
                section = int(line[1 : line.index("-")])
                order = max(order, section)
                continue
            if not section:
                continue
            parts = line.split()
            gram = tuple(parts[1 : section + 1])
            logprobs[gram] = float(parts[0])
            if len(parts) > section + 1:
                backoffs[gram] = float(parts[section + 1])
    return order, logprobs, backoffs


def arpa_logprob(order, logprobs, backoffs, context, w):
    """Standard ARPA rule: stored value at the longest match, else backoff
    weight of the missing context plus the next-shorter estimate."""
    ctx = tuple(context)
    if order > 1:
        ctx = ctx[len(ctx) - (order - 1) :] if len(ctx) >= order else ctx
    else:
        ctx = ()

    def rec(c):
        g = c + (w,)
        if g in logprobs:
            return logprobs[g]
        if not c:
            return logprobs.get((UNK,), -99.0)
        return backoffs.get(c, 0.0) + rec(c[1:])

    return rec(ctx)


def arpa_seq_logprob(order, logprobs, backoffs, tokens):
    """Sentence log10 probability with boundary symbols, ARPA-convention."""
    ctx = (BOS,) * (order - 1)
    total = 0.0
    for w in list(tokens) + [EOS]:
        total += arpa_logprob(order, logprobs, backoffs, ctx, w)
        ctx = (ctx + (w,))[-(order - 1) :] if order > 1 else ()
    return total


def reference_tables(model):
    """Scorer tables by the sort-and-closure rule, as a plain namespace with
    the fields of the package's tables: every context of a stored gram (and
    every gram shorter than the order that has a backoff weight) is closed
    under prefixes and suffixes, then numbered by (length, token ids).  Token
    ids follow the sorted vocabulary; anything else gets the sentinel."""
    token_ids = {tok: i for i, tok in enumerate(sorted(model.vocab))}
    sentinel = len(token_ids)
    base = sentinel + 1

    def ids_of(gram):
        return tuple(token_ids.get(t, sentinel) for t in gram)

    contexts = {()}
    grams = {}
    for g, lp in model.logprobs.items():
        ig = ids_of(g)
        grams[ig] = lp
        contexts.add(ig[:-1])
    bows = {}
    for g, w in model.backoffs.items():
        if len(g) < model.order:
            ig = ids_of(g)
            bows[ig] = w
            contexts.add(ig)
    stack = list(contexts)
    while stack:
        c = stack.pop()
        for link in (c[:-1], c[1:]):
            if c and link not in contexts:
                contexts.add(link)
                stack.append(link)

    ordered = sorted(contexts, key=lambda c: (len(c), c))
    ctx_id = {c: i for i, c in enumerate(ordered)}

    def longest_stored_suffix(ctx):
        for i in range(len(ctx) + 1):
            if ctx[i:] in ctx_id:
                return ctx_id[ctx[i:]]

    bos = token_ids.get(BOS, sentinel)
    state = ()
    for _ in range(model.order - 1):
        state = ordered[longest_stored_suffix(state + (bos,))]
    probs = {ctx_id[g[:-1]] * base + g[-1]: lp for g, lp in grams.items()}
    prob_keys = sorted(probs)
    trans = {ctx_id[c[:-1]] * base + c[-1]: ctx_id[c] for c in ordered if c}
    trans_keys = sorted(trans)
    return SimpleNamespace(
        order=model.order,
        base=base,
        token_ids=token_ids,
        parent=[ctx_id[c[1:]] if c else 0 for c in ordered],
        backoff=[bows.get(c, 0.0) for c in ordered],
        prob_keys=prob_keys,
        # one value a key: the columns need not share equal numbers
        prob_index=list(range(len(prob_keys))),
        logprobs=[probs[k] for k in prob_keys],
        trans_keys=trans_keys,
        trans_next=[trans[k] for k in trans_keys],
        unk_log10=model.unk_log10,
        bos_state=ctx_id[state],
        eos_id=token_ids.get(EOS, sentinel),
    )
