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

One builder makes the tables, ``TableBuilder``: the log probabilities are
added first, then the backoff weights.  ``build_tables`` feeds it a model's
maps, and the ARPA writer feeds it the numbers it writes, in the order of
the file, so the tables ``train`` stores equal those ``build_tables`` makes
of the model read back from its ARPA file.  Each gram's words are looked up
once, and its context is found by walking ``trans`` from the empty context.  A context the
walk does not find is made on the spot: it takes the next id, its parent
(the context without its first token) is found and if need be made by the
same rule, and its backoff is 0.0 until the model gives one.  So every
prefix and suffix of a stored context exists, as both walks need (pruned
external models may store a context without them), and contexts are
numbered in the order they are first reached, after their parents and
prefixes; the kernels treat a state as an opaque int.  Backoff weights are
read only from grams shorter than the model's order: a context is at most
order - 1 tokens long, and a weight on a top-order gram (which an ARPA file
may carry) would otherwise make an order-1 model's state keep the last
token.

``write_tables`` / ``read_tables`` store the tables in a binary file: a
magic and version header, the vocabulary in id order, then each column as a
little-endian ``array`` block.  ``read_tables`` rejects a file whose header,
lengths or values could not come from ``write_tables`` of valid tables,
with the value rules ``read_arpa`` applies to ARPA text.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
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


class TableBuilder:
    """Scorer tables of one model, made from its grams as they are added."""

    def __init__(self, order: int, vocab):
        self.order = order
        self.token_ids = {tok: i for i, tok in enumerate(sorted(vocab))}
        self.base = len(self.token_ids) + 1
        self.ctx_len = [0]
        self.parent = [0]
        self.backoff = [0.0]
        self.probs: dict[int, float] = {}
        self.trans: dict[int, int] = {}

    def extend(self, c: int, t: int) -> int:
        """Make the context ``c`` followed by token ``t``, which is missing,
        and return its id.

        Its parent is parent(c) + t, made first by the same rule: the walk
        down c's parent chain stops at the first context whose extension by
        ``t`` exists, or after the empty context (the one-token context's
        parent is the empty context), and the missing extensions are made
        from the shortest up.
        """
        trans, parent, base = self.trans, self.parent, self.base
        chain = [c]  # contexts whose extension by t is missing, longest first
        up = 0
        while c:
            c = parent[c]
            nxt = trans.get(c * base + t)
            if nxt is not None:
                up = nxt
                break
            chain.append(c)
        ctx_len, backoff = self.ctx_len, self.backoff
        for c in reversed(chain):
            nxt = trans[c * base + t] = len(ctx_len)
            ctx_len.append(ctx_len[c] + 1)
            parent.append(up)
            backoff.append(0.0)
            up = nxt
        return up

    def context(self, words) -> int:
        """Id of the context ``words``, made (with its parents) if missing."""
        tid, sentinel = self.token_ids.get, self.base - 1
        trans, base = self.trans, self.base
        c = 0
        for w in words:
            t = tid(w, sentinel)
            nxt = trans.get(c * base + t)
            c = self.extend(c, t) if nxt is None else nxt
        return c

    def add_logprobs(self, grams, values) -> None:
        """Store each gram's log10 probability.  A run of grams that share a
        prefix (an ARPA section is sorted) walks it once."""
        tid, sentinel = self.token_ids.get, self.base - 1
        probs, base, context = self.probs, self.base, self.context
        prefix, c = (), 0
        for g, lp in zip(grams, values):
            if g[:-1] != prefix:
                prefix = g[:-1]
                c = context(prefix)
            probs[c * base + tid(g[-1], sentinel)] = lp

    def add_backoffs(self, grams, weights) -> None:
        """Store the backoff weight of each gram shorter than the order."""
        tid, sentinel = self.token_ids.get, self.base - 1
        backoff, trans, base, top = self.backoff, self.trans, self.base, self.order
        context, extend = self.context, self.extend
        prefix, c = (), 0
        for g, w in zip(grams, weights):
            if len(g) < top:
                if g[:-1] != prefix:
                    prefix = g[:-1]
                    c = context(prefix)
                t = tid(g[-1], sentinel)
                nxt = trans.get(c * base + t)
                backoff[extend(c, t) if nxt is None else nxt] = w

    def tables(self, unk_log10: float) -> ScorerTables:
        sentinel = self.base - 1
        tables = ScorerTables(
            order=self.order,
            base=self.base,
            token_ids=self.token_ids,
            ctx_len=self.ctx_len,
            parent=self.parent,
            backoff=self.backoff,
            probs=self.probs,
            trans=self.trans,
            unk_log10=unk_log10,
            bos_state=0,
            eos_id=self.token_ids.get(EOS, sentinel),
        )
        bos = self.token_ids.get(BOS, sentinel)
        tables.bos_state = PyScorer(tables).walk(0, [bos] * (self.order - 1))
        return tables


def build_tables(model) -> ScorerTables:
    builder = TableBuilder(model.order, model.vocab)
    builder.add_logprobs(model.logprobs, model.logprobs.values())
    builder.add_backoffs(model.backoffs, model.backoffs.values())
    return builder.tables(model.unk_log10)


class MalformedTables(ValueError):
    """A tables file that ``write_tables`` did not write from valid tables."""

    def __init__(self, path, reason: str):
        super().__init__("%s: %s" % (path, reason))


MAGIC = b"templex-tables\n\0"
VERSION = 1
# magic, version, order, base, bos_state, eos_id, unk_log10, then the byte
# length of the vocabulary and the number of contexts, probs and trans
_HEADER = struct.Struct("<16sI4qd4q")
_INT, _FLOAT = "q", "d"  # 8-byte signed int, 8-byte IEEE double
_SWAP = sys.byteorder != "little"


def _columns(nctx: int, nprobs: int, ntrans: int):
    """(typecode, length) of each block after the vocabulary: ctx_len,
    parent, backoff, probs keys and values, trans keys and values."""
    return (
        (_INT, nctx),
        (_INT, nctx),
        (_FLOAT, nctx),
        (_INT, nprobs),
        (_FLOAT, nprobs),
        (_INT, ntrans),
        (_INT, ntrans),
    )


def write_tables(tables: ScorerTables, path) -> None:
    """Write ``tables`` to ``path`` in the format ``read_tables`` loads."""
    words = list(tables.token_ids)
    if any("\n" in w for w in words):
        raise ValueError("a token contains a newline, which the vocabulary block cannot hold")
    vocab = "\n".join(words).encode("utf-8")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        tables.order,
        tables.base,
        tables.bos_state,
        tables.eos_id,
        tables.unk_log10,
        len(vocab),
        len(tables.ctx_len),
        len(tables.probs),
        len(tables.trans),
    )
    columns = (
        tables.ctx_len,
        tables.parent,
        tables.backoff,
        tables.probs.keys(),
        tables.probs.values(),
        tables.trans.keys(),
        tables.trans.values(),
    )
    layout = _columns(len(tables.ctx_len), len(tables.probs), len(tables.trans))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(vocab)
        for (typecode, _), values in zip(layout, columns):
            block = array(typecode, values)
            if _SWAP:
                block.byteswap()
            block.tofile(fh)


def read_tables(path) -> ScorerTables:
    """Load the tables ``write_tables`` wrote to ``path``.

    Raises MalformedTables for a wrong magic or version, a length that does
    not match the header, a NaN or positive log probability, a NaN or +inf
    backoff weight, and context links that would leave the table (a parent
    must come before its child, so every backoff walk ends).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise MalformedTables(path, "shorter than the header")
    magic, version, order, base, bos_state, eos_id, unk_log10, nvocab, nctx, nprobs, ntrans = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise MalformedTables(path, "not a templex tables file")
    if version != VERSION:
        raise MalformedTables(path, "format version %d, expected %d" % (version, VERSION))
    if min(nvocab, nctx, nprobs, ntrans) < 0 or len(data) != _HEADER.size + nvocab + 8 * (
        3 * nctx + 2 * nprobs + 2 * ntrans
    ):
        raise MalformedTables(path, "%d bytes, the header declares other lengths" % len(data))

    at = _HEADER.size + nvocab
    try:
        text = data[_HEADER.size : at].decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedTables(path, "vocabulary is not UTF-8") from None
    words = text.split("\n") if base > 1 else []
    token_ids = dict(zip(words, range(len(words))))
    view = memoryview(data)
    columns = []
    for typecode, n in _columns(nctx, nprobs, ntrans):
        values = array(typecode)
        values.frombytes(view[at : at + 8 * n])
        if _SWAP:
            values.byteswap()
        columns.append(values.tolist())
        at += 8 * n
    ctx_len, parent, backoff, prob_keys, prob_values, trans_keys, trans_values = columns
    probs = dict(zip(prob_keys, prob_values))
    trans = dict(zip(trans_keys, trans_values))

    if order < 1 or base < 1 or len(words) != base - 1 or len(token_ids) != len(words):
        raise MalformedTables(path, "vocabulary does not match its header")
    if len(probs) != nprobs or len(trans) != ntrans:
        raise MalformedTables(path, "a key is stored twice")
    if not (unk_log10 <= 0.0 and all(map((0.0).__ge__, prob_values))):
        raise MalformedTables(path, "a log probability is NaN or above 0")
    if not all(map(math.inf.__gt__, backoff)):
        raise MalformedTables(path, "a backoff weight is NaN or +inf")
    if not (
        nctx >= 1
        and ctx_len[0] == parent[0] == 0
        and min(parent) >= 0
        and all(map(int.__lt__, parent[1:], range(1, nctx)))
        and (not trans_values or (min(trans_values) >= 1 and max(trans_values) < nctx))
        and 0 <= bos_state < nctx
        and 0 <= eos_id < base
    ):
        raise MalformedTables(path, "a context link points outside the table")
    return ScorerTables(
        order, base, token_ids, ctx_len, parent, backoff, probs, trans, unk_log10, bos_state, eos_id
    )
