"""Packed lookup tables shared by the scoring kernels.

The model's string-tuple maps are compiled into integer form once per model:
tokens get dense ids (out-of-vocabulary and ``<unk>`` share the sentinel id
``V``), every stored context gets a dense context id, and the two hot maps
key on ``ctx_id * (V + 1) + token_id``:

* ``probs``  -> stored log10 probability of (context, token);
* ``trans``  -> context id of the extended context, for O(1) left-to-right
  state advancement.

``parent[c]`` drops the leftmost token of context ``c`` (the backoff step)
and ``backoff[c]`` is its log10 backoff weight.

``build_tables`` makes the tables in one pass over the model's grams.  Each
gram's words are looked up once, and its context is found by walking
``trans`` from the empty context.  A context the walk does not find is made
on the spot: it takes the next id, its parent (the context without its first
token) is found and if need be made by the same rule, and its backoff is 0.0
until the model gives one.  So every prefix and suffix of a stored context
exists, as both walks need (pruned external models may store a context
without them), and contexts are numbered in the order they are first
reached, after their parents and prefixes; the kernels treat a state as an
opaque int.  Backoff weights are read only from grams shorter than the
model's order: a context is at most order - 1 tokens long, and a weight on a
top-order gram (which an ARPA file may carry) would otherwise make an
order-1 model's state keep the last token.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ngram.counts import BOS, EOS
from .pykernel import PyScorer


@dataclass
class ScorerTables:
    order: int
    base: int  # V + 1; token ids run 0..V with V the OOV sentinel
    token_ids: dict[str, int]
    ctx_len: list[int]
    parent: list[int]
    backoff: list[float]
    probs: dict[int, float]
    trans: dict[int, int]
    unk_log10: float
    bos_state: int
    eos_id: int

    def encode(self, token: str) -> int:
        return self.token_ids.get(token, self.base - 1)

    def encode_all(self, tokens) -> list[int]:
        get = self.token_ids.get
        sentinel = self.base - 1
        return [get(t, sentinel) for t in tokens]


def build_tables(model) -> ScorerTables:
    token_ids = {tok: i for i, tok in enumerate(sorted(model.vocab))}
    sentinel = len(token_ids)
    base = sentinel + 1
    tid = token_ids.get
    ctx_len = [0]
    parent = [0]
    backoff = [0.0]
    trans: dict[int, int] = {}
    probs: dict[int, float] = {}

    def extend(c: int, t: int) -> int:
        """Id of context ``c`` followed by token ``t``, made if it is missing.

        The parent of c + t is parent(c) + t, made by the same rule.
        """
        key = c * base + t
        nxt = trans.get(key)
        if nxt is None:
            up = extend(parent[c], t) if c else 0
            nxt = trans[key] = len(ctx_len)
            ctx_len.append(ctx_len[c] + 1)
            parent.append(up)
            backoff.append(0.0)
        return nxt

    def context(words) -> int:
        c = 0
        for w in words:
            c = extend(c, tid(w, sentinel))
        return c

    # An ARPA file lists grams sorted, so a run of grams shares one prefix,
    # which is walked once; any other order gives the same tables.
    prefix, c = (), 0
    for g, lp in model.logprobs.items():
        if g[:-1] != prefix:
            prefix = g[:-1]
            c = context(prefix)
        probs[c * base + tid(g[-1], sentinel)] = lp
    prefix, c = (), 0
    for g, w in model.backoffs.items():
        if len(g) < model.order:
            if g[:-1] != prefix:
                prefix = g[:-1]
                c = context(prefix)
            backoff[extend(c, tid(g[-1], sentinel))] = w

    tables = ScorerTables(
        order=model.order,
        base=base,
        token_ids=token_ids,
        ctx_len=ctx_len,
        parent=parent,
        backoff=backoff,
        probs=probs,
        trans=trans,
        unk_log10=model.unk_log10,
        bos_state=0,
        eos_id=tid(EOS, sentinel),
    )
    tables.bos_state = PyScorer(tables).walk(0, [tid(BOS, sentinel)] * (model.order - 1))
    return tables
