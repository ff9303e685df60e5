"""Packed lookup tables shared by the scoring kernels.

The model's string-tuple maps are compiled into integer form once per model:
tokens get dense ids (out-of-vocabulary and ``<unk>`` share the sentinel id
``V``), every stored context gets a dense context id, and the two hot maps
key on ``ctx_id * (V + 1) + token_id``:

* ``prob_keys`` and ``prob_values`` -> the stored log10 probability of each
  (context, token), as two columns: the keys in strictly ascending order,
  so each context's grams are one run of them, and the matching values;
* ``trans``  -> context id of the extended context, for O(1) left-to-right
  state advancement.

``parent[c]`` drops the leftmost token of context ``c`` (the backoff step)
and ``backoff[c]`` is its log10 backoff weight.  A context's length is the
number of parent steps to the empty context; no column holds it.  A state is
the longest stored context that the next token can still extend (Heafield
2011, "KenLM"), so no ``trans`` key leaves a context of order - 1 tokens.
``eos_id`` and ``bos_state`` follow from the vocabulary and ``trans``, and
every ``ScorerTables`` works them out when it is made, built or loaded.

One builder makes the tables, ``TableBuilder``, and it alone orders what it
is given: it stores each log probability as it is added, and when the tables
are taken it sorts them into the two columns and sets the backoff weights,
after every log probability.
``build_tables`` adds a model's maps, and the ARPA writer each gram's
numbers as it writes them, in the order of the file, so the tables ``train``
stores equal those ``build_tables`` makes of the model read back from its
ARPA file.  Each gram's words are looked up once, and its context is found
by walking ``trans`` from the empty context.  A context the walk does not
find is made on the spot: it takes the next id, its parent (the context
without its first token) is found and if need be made by the same rule, and
its backoff is 0.0 until the model gives one.  So every prefix and suffix of
a stored context exists, as both walks need (pruned external models may
store a context without them), and contexts are numbered in the order they
are first reached, after their parents and prefixes; the kernels treat a
state as an opaque int.  Backoff weights are read only from grams shorter
than the model's order: a context is at most order - 1 tokens long, and a
weight on a top-order gram (which an ARPA file may carry) would otherwise
make an order-1 model's state keep the last token.

``write_tables`` / ``read_tables`` store the tables in a binary file (format
version 5): a header of magic, version, order, base, ``unk_log10`` and the
block lengths, the vocabulary in id order, then little-endian ``array``
blocks.  Each distinct log probability and each distinct backoff weight is
stored once, in a block of 8-byte doubles in first-occurrence order; floats
are equal when their 8 bytes are, so -0.0 and 0.0 stay apart.  The
``prob_values`` and the ``backoff`` column are 4-byte indexes into those
blocks, and every other column is 8-byte ints, ``prob_keys`` in the order it
is held.  Of ``trans`` only the keys are stored: ``extend`` makes each
context but the empty one with the one transition that leads to it, so the
i-th transition leads to context i + 1, and ``write_tables`` refuses tables
numbered otherwise.  A trained model's numbers are 4-decimal values, far
fewer distinct than stored; ``read_tables`` gives equal numbers one float
object, as the ARPA writer does at ``train``, and each context id one int
object.  It rejects a file whose header, lengths or values could not come
from ``write_tables`` of valid tables, with the value rules ``read_arpa``
applies to ARPA text; each value block is checked once, and each index or
link column's range before it is gathered (a negative index would wrap in
Python).  It loads block by block: it checks the header's lengths against
the file's size, then reads the vocabulary and each block in turn from the
open file, and drops each block once its column is built, so neither the
whole file nor a second copy of a column is held beside the tables.
``prob_keys`` is kept as the block it is read into, and no map of the log
probabilities is built: the Python kernel makes a context's map of them the
first time a query reaches the context.  The other columns are lists and
``trans`` a dict, because the kernels index them on every query and an array
makes a new object on each index.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from array import array
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import ge, gt, le, lt

from ..ngram.counts import BOS, EOS
from .pykernel import PyScorer


@dataclass
class ScorerTables:
    order: int
    base: int  # V + 1; token ids run 0..V with V the OOV sentinel
    token_ids: dict[str, int]
    parent: list[int]
    backoff: list[float]
    prob_keys: array  # of "q", strictly ascending
    prob_values: list[float]
    trans: dict[int, int]
    unk_log10: float
    # derived, never stored: the id of the end symbol, and the state after
    # the start padding (the longest stored suffix of order - 1 start symbols)
    eos_id: int = field(init=False)
    bos_state: int = field(init=False)

    def __post_init__(self):
        self.eos_id = self.encode(EOS)
        # a step depends only on the state before it, so stop at a fixed point
        advance, bos, state = PyScorer(self).advance, self.encode(BOS), 0
        for _ in range(self.order - 1):
            nxt = advance(state, bos)
            if nxt == state:
                break
            state = nxt
        self.bos_state = state

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
        self.parent = [0]
        self.backoff = [0.0]
        self.probs: dict[int, float] = {}
        self.trans: dict[int, int] = {}
        # backoff weights not yet set, by the key of their gram
        self.queued: dict[int, float] = {}

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
        backoff = self.backoff
        for c in reversed(chain):
            nxt = trans[c * base + t] = len(parent)
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

    def add(self, grams, logprobs, weights) -> None:
        """Store each gram's log10 probability and queue its backoff weight;
        ``None`` stores nothing, nor does a top-order gram's weight, and a
        gram that stores nothing walks no prefix.  A run of grams that share
        a prefix (an ARPA section is sorted) walks it once."""
        tid, sentinel, base, top = self.token_ids.get, self.base - 1, self.base, self.order
        probs, queued, context = self.probs, self.queued, self.context
        prefix, c = (), 0
        for g, lp, w in zip(grams, logprobs, weights):
            if w is not None and len(g) >= top:
                w = None
            if lp is None and w is None:
                continue
            if g[:-1] != prefix:
                prefix = g[:-1]
                c = context(prefix)
            key = c * base + tid(g[-1], sentinel)
            if lp is not None:
                probs[key] = lp
            if w is not None:
                queued[key] = w

    def tables(self, unk_log10: float) -> ScorerTables:
        """The tables, once each queued backoff weight is set in turn; the
        builder is spent.  The map of log probabilities is dropped before the
        array of their keys is made, so the two are never alive together."""
        trans, backoff, base, extend = self.trans, self.backoff, self.base, self.extend
        for key, w in self.queued.items():
            c = trans.get(key)
            backoff[extend(*divmod(key, base)) if c is None else c] = w
        probs, self.probs = self.probs, None
        keys = sorted(probs)
        values = list(map(probs.__getitem__, keys))
        del probs
        prob_keys = array(_INT, keys)
        del keys
        return ScorerTables(
            order=self.order,
            base=self.base,
            token_ids=self.token_ids,
            parent=self.parent,
            backoff=self.backoff,
            prob_keys=prob_keys,
            prob_values=values,
            trans=self.trans,
            unk_log10=unk_log10,
        )


def build_tables(model) -> ScorerTables:
    builder = TableBuilder(model.order, model.vocab)
    builder.add(model.logprobs, model.logprobs.values(), repeat(None))
    builder.add(model.backoffs, repeat(None), model.backoffs.values())
    return builder.tables(model.unk_log10)


class MalformedTables(ValueError):
    """A tables file that ``write_tables`` did not write from valid tables."""

    def __init__(self, path, reason: str):
        super().__init__("%s: %s" % (path, reason))


MAGIC = b"templex-tables\n\0"
VERSION = 5
# magic, version, order, base, unk_log10, then the byte length of the
# vocabulary, the number of contexts and of stored log probabilities, and
# the number of distinct log probabilities and of distinct backoff weights
_HEADER = struct.Struct("<16sI2qd5q")
# 8-byte signed int, 8-byte IEEE double, 4-byte unsigned index into a value block
_INT, _FLOAT, _INDEX = "q", "d", "I"
_SWAP = sys.byteorder != "little"


def _blocks(nctx: int, nprobs: int, nlogprobs: int, nbackoffs: int):
    """(typecode, length) of each block after the vocabulary: the distinct
    log probabilities and backoff weights, then parent, the backoff index of
    each context, the log probabilities' keys and value indexes, and trans
    keys."""
    return (
        (_FLOAT, nlogprobs),
        (_FLOAT, nbackoffs),
        (_INT, nctx),
        (_INDEX, nctx),
        (_INT, nprobs),
        (_INDEX, nprobs),
        (_INT, nctx - 1),
    )


def _distinct(values) -> tuple[array, array]:
    """The distinct floats of ``values`` in first-occurrence order, and the
    index of each value among them.  Floats are equal when their 8 bytes are,
    so -0.0 and 0.0 stay apart."""
    bits = array(_INT)
    bits.frombytes(array(_FLOAT, values).tobytes())
    first = {b: i for i, b in enumerate(dict.fromkeys(bits))}
    distinct = array(_FLOAT)
    distinct.frombytes(array(_INT, first).tobytes())
    return distinct, array(_INDEX, map(first.__getitem__, bits))


def write_tables(tables: ScorerTables, path) -> None:
    """Write ``tables`` to ``path`` in the format ``read_tables`` loads."""
    words = list(tables.token_ids)
    if any("\n" in w for w in words):
        raise ValueError("a token contains a newline, which the vocabulary block cannot hold")
    trans, nctx = tables.trans, len(tables.parent)
    if len(trans) != nctx - 1 or any(map(int.__ne__, trans.values(), range(1, nctx))):
        raise ValueError("the i-th transition must lead to context i + 1, as the file numbers them")
    vocab = "\n".join(words).encode("utf-8")
    logprobs, prob_index = _distinct(tables.prob_values)
    backoffs, backoff_index = _distinct(tables.backoff)
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        tables.order,
        tables.base,
        tables.unk_log10,
        len(vocab),
        nctx,
        len(tables.prob_keys),
        len(logprobs),
        len(backoffs),
    )
    columns = (
        logprobs,
        backoffs,
        tables.parent,
        backoff_index,
        tables.prob_keys,
        prob_index,
        trans.keys(),
    )
    layout = _blocks(nctx, len(tables.prob_keys), len(logprobs), len(backoffs))
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
    backoff weight, an index past its value block, context links that
    would leave the table (a parent must come before its child, so every
    backoff walk ends), a key stored twice, ``prob_keys`` out of ascending
    order, and a key of ``prob_keys`` that names no context.  Equal numbers
    share one float object, and each context id is one int object in
    ``parent`` and the ``trans`` values.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise MalformedTables(path, "shorter than the header")
        fields = _HEADER.unpack(fh.read(_HEADER.size))
        magic, version, order, base, unk_log10 = fields[:5]
        nvocab, nctx, nprobs, nlogprobs, nbackoffs = fields[5:]
        if magic != MAGIC:
            raise MalformedTables(path, "not a templex tables file")
        if version != VERSION:
            raise MalformedTables(path, "format version %d, expected %d" % (version, VERSION))
        layout = _blocks(nctx, nprobs, nlogprobs, nbackoffs)
        # at least the empty context, so no block has a negative length
        if min(nvocab, nctx - 1, nprobs, nlogprobs, nbackoffs) < 0 or size != (
            _HEADER.size + nvocab + sum(array(typecode).itemsize * n for typecode, n in layout)
        ):
            raise MalformedTables(path, "%d bytes, the header declares other lengths" % size)
        try:
            text = fh.read(nvocab).decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedTables(path, "vocabulary is not UTF-8") from None
        words = text.split("\n") if base > 1 or text else []
        token_ids = dict(zip(words, range(len(words))))
        if order < 1 or base < 1 or len(words) != base - 1 or len(token_ids) != len(words):
            raise MalformedTables(path, "vocabulary does not match its header")
        # each block is read as it is used, and dropped once its column is
        # built (keys first, then values: the order of the file)
        blocks = (_read_block(fh, typecode, n) for typecode, n in layout)
        logprobs = next(blocks).tolist()
        if not (unk_log10 <= 0.0 and all(map(ge, repeat(0.0), logprobs))):
            raise MalformedTables(path, "a log probability is NaN or above 0")
        backoffs = next(blocks).tolist()
        if not all(map(gt, repeat(math.inf), backoffs)):
            raise MalformedTables(path, "a backoff weight is NaN or +inf")
        links = next(blocks)
        if not (links[0] == 0 and min(links) >= 0 and all(map(lt, links[1:], range(1, nctx)))):
            raise MalformedTables(path, "a context link points outside the table")
        ids = list(range(nctx))  # the one int object of each context id
        parent = list(map(ids.__getitem__, links))
        del links
        backoff = list(_gather(path, backoffs, next(blocks)))
        prob_keys = next(blocks)
        _check_ascending(path, prob_keys, nctx * base)
        prob_values = list(_gather(path, logprobs, next(blocks)))
        # the i-th key leads to context i + 1
        trans = dict(zip(next(blocks), islice(ids, 1, None)))
    if len(trans) != nctx - 1:
        raise MalformedTables(path, "a key is stored twice")
    return ScorerTables(order, base, token_ids, parent, backoff, prob_keys, prob_values, trans, unk_log10)


def _check_ascending(path, keys: array, end: int) -> None:
    """Raise unless ``keys`` ascend strictly from 0 or more to below ``end``,
    the first key past the last context."""
    if not all(map(lt, keys, islice(keys, 1, None))):
        if all(map(le, keys, islice(keys, 1, None))):
            raise MalformedTables(path, "a key is stored twice")
        raise MalformedTables(path, "the log probability keys are out of order")
    if keys and not (keys[0] >= 0 and keys[-1] < end):
        raise MalformedTables(path, "a log probability key names no context")


def _gather(path, values: list, index: array):
    """The value each index names, once every index is checked to fall
    inside ``values`` (a negative one cannot occur: the indexes are
    unsigned)."""
    if index and max(index) >= len(values):
        raise MalformedTables(path, "a value index points past its block")
    return map(values.__getitem__, index)


def _read_block(fh, typecode: str, n: int) -> array:
    """The next ``n`` little-endian values of ``typecode`` from ``fh``."""
    values = array(typecode)
    values.fromfile(fh, n)
    if _SWAP:
        values.byteswap()
    return values
