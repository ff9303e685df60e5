"""Packed lookup tables shared by the scoring kernels.

The model's string-tuple maps are compiled into integer form once per model:
tokens get dense ids (out-of-vocabulary and ``<unk>`` share the sentinel id
``V``), every stored context gets a dense context id, and the two hot maps
key on ``ctx_id * (V + 1) + token_id``.  Each is held as columns, its keys
in strictly ascending order, so each context's entries are one run of them:

* ``prob_keys`` and ``prob_index`` -> the stored log10 probability of each
  (context, token): the keys, and the index of each key's value in
  ``logprobs``, the list of distinct log probabilities;
* ``trans_keys`` and ``trans_next`` -> context id of the extended context,
  for left-to-right state advancement.

``parent[c]`` drops the leftmost token of context ``c`` (the backoff step)
and ``backoff[c]`` is its log10 backoff weight.  A context's length is the
number of parent steps to the empty context; no column holds it.  A state is
the longest stored context that the next token can still extend (Heafield
2011, "KenLM"), so no transition leaves a context of order - 1 tokens.
``eos_id`` and ``bos_state`` follow from the vocabulary and the transitions,
and every ``ScorerTables`` works them out when it is made, built or loaded,
with the transition lookup the Python kernel uses.

One builder makes the tables, ``TableBuilder``, and it alone orders what it
is given: it stores each log probability and each transition in a map as it
is added, and when the tables are taken it sets the backoff weights, after
every log probability, and sorts each map into its columns.
``build_tables`` adds a model's maps, and the ARPA writer each gram's
numbers as it writes them, in the order of the file, so the tables ``train``
stores equal those ``build_tables`` makes of the model read back from its
ARPA file.  Each gram's words are looked up once, and its context is found
by walking the transitions from the empty context.  A context the walk does
not find is made on the spot: it takes the next id, its parent (the context
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
version 6): a header of magic, version, order, base, ``unk_log10`` and the
block lengths, the vocabulary in id order, then little-endian ``array``
blocks, each column as it is held.  Each distinct log probability and each
distinct backoff weight is stored once, in a block of 8-byte doubles in
first-occurrence order; floats are equal when their 8 bytes are, so -0.0
and 0.0 stay apart.  ``prob_index`` and the backoff column are 4-byte
indexes into those blocks, ``trans_next`` 4-byte context ids, and every
other column is 8-byte ints.  ``extend`` makes each context but the empty
one with the one transition that leads to it, so there are that many
transitions, each to a context after its source, and ``write_tables``
refuses tables with another number.  A trained model's numbers are
4-decimal values, far fewer distinct than stored; ``read_tables`` gives
equal backoff weights one float object, as the ARPA writer does at
``train``, and ``logprobs`` holds one of each log probability.  It rejects
a file whose header, lengths or values could not come from ``write_tables``
of valid tables, with the value rules ``read_arpa`` applies to ARPA text;
each value block is checked once, and each index or link column's range
before anything is looked up in it (a negative index would wrap in Python).
It loads block by block: it checks the header's lengths against the file's
size, then reads the vocabulary and each block in turn from the open file
straight into the array that holds it, so neither the whole file nor a
second copy of a column is held beside the tables.  Every column but
``backoff`` is kept as the block it is read into, and no Python object is
made per context, transition or stored gram: the Python kernel makes a
context's rows of log probabilities and of transitions the first time a
query reaches the context.  ``backoff`` is a list of the shared floats,
because ``score`` reads it on every backoff step.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from array import array
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import floordiv, ge, gt, le, lt

from ..ngram.counts import BOS, EOS
from .pykernel import transitions


@dataclass
class ScorerTables:
    order: int
    base: int  # V + 1; token ids run 0..V with V the OOV sentinel
    token_ids: dict[str, int]
    parent: array  # of "q", each context's parent, below it
    backoff: list[float]
    prob_keys: array  # of "q", strictly ascending
    prob_index: array  # of "I", each key's log probability in logprobs
    logprobs: list[float]  # the distinct log probabilities
    trans_keys: array  # of "q", strictly ascending
    trans_next: array  # of "I", the context each key leads to
    unk_log10: float
    # derived, never stored: the id of the end symbol, and the state after
    # the start padding (the longest stored suffix of order - 1 start symbols)
    eos_id: int = field(init=False)
    bos_state: int = field(init=False)

    def __post_init__(self):
        self.eos_id = self.encode(EOS)
        # each start symbol moves the state as the kernel's ``advance`` does,
        # backing off until a transition takes it; a step depends only on
        # the state before it, so stop at a fixed point
        bos, state = self.encode(BOS), 0
        for _ in range(self.order - 1):
            u = state
            nxt = transitions(self, u).get(bos)
            while nxt is None and u:
                u = self.parent[u]
                nxt = transitions(self, u).get(bos)
            if nxt is None:
                nxt = 0
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
        builder is spent.  Each map is sorted into its two columns: its keys
        are sorted, its values gathered in their order, and the map dropped
        before the array of the keys is made, so no list of pairs is built
        and the map and its key array are never alive together."""
        trans, backoff, base, extend = self.trans, self.backoff, self.base, self.extend
        for key, w in self.queued.items():
            c = trans.get(key)
            backoff[extend(*divmod(key, base)) if c is None else c] = w
        probs, self.probs = self.probs, None
        keys = sorted(probs)
        values = array(_FLOAT, map(probs.__getitem__, keys))
        del probs
        prob_keys = array(_INT, keys)
        del keys
        logprobs, prob_index = _distinct(values)
        del values
        self.trans = None
        keys = sorted(trans)
        trans_next = array(_INDEX, map(trans.__getitem__, keys))
        del trans
        trans_keys = array(_INT, keys)
        del keys
        parent, self.parent = array(_INT, self.parent), None
        return ScorerTables(
            order=self.order,
            base=self.base,
            token_ids=self.token_ids,
            parent=parent,
            backoff=self.backoff,
            prob_keys=prob_keys,
            prob_index=prob_index,
            logprobs=logprobs.tolist(),
            trans_keys=trans_keys,
            trans_next=trans_next,
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
VERSION = 6
# magic, version, order, base, unk_log10, then the byte length of the
# vocabulary, the number of contexts and of stored log probabilities, and
# the number of distinct log probabilities and of distinct backoff weights
_HEADER = struct.Struct("<16sI2qd5q")
# 8-byte signed int, 8-byte IEEE double, 4-byte unsigned index or context id
_INT, _FLOAT, _INDEX = "q", "d", "I"
_SWAP = sys.byteorder != "little"


def _blocks(nctx: int, nprobs: int, nlogprobs: int, nbackoffs: int):
    """(typecode, length) of each block after the vocabulary: the distinct
    log probabilities and backoff weights, then parent, the backoff index of
    each context, the log probabilities' keys and value indexes, and the
    transitions' keys and targets, one transition to each context but the
    empty one."""
    return (
        (_FLOAT, nlogprobs),
        (_FLOAT, nbackoffs),
        (_INT, nctx),
        (_INDEX, nctx),
        (_INT, nprobs),
        (_INDEX, nprobs),
        (_INT, nctx - 1),
        (_INDEX, nctx - 1),
    )


def _distinct(values: array) -> tuple[array, array]:
    """The distinct floats of the array ``values`` in first-occurrence
    order, and the index of each value among them.  Floats are equal when
    their 8 bytes are, so -0.0 and 0.0 stay apart."""
    bits = memoryview(values).cast("B").cast(_INT)
    first = {b: i for i, b in enumerate(dict.fromkeys(bits))}
    distinct = array(_FLOAT)
    distinct.frombytes(memoryview(array(_INT, first)).cast("B"))
    return distinct, array(_INDEX, map(first.__getitem__, bits))


def write_tables(tables: ScorerTables, path) -> None:
    """Write ``tables`` to ``path`` in the format ``read_tables`` loads."""
    words = list(tables.token_ids)
    if any("\n" in w for w in words):
        raise ValueError("a token contains a newline, which the vocabulary block cannot hold")
    nctx = len(tables.parent)
    if not (len(tables.trans_keys) == len(tables.trans_next) == nctx - 1):
        raise ValueError("the file holds one transition to each context but the empty one")
    vocab = "\n".join(words).encode("utf-8")
    backoffs, backoff_index = _distinct(array(_FLOAT, tables.backoff))
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        tables.order,
        tables.base,
        tables.unk_log10,
        len(vocab),
        nctx,
        len(tables.prob_keys),
        len(tables.logprobs),
        len(backoffs),
    )
    columns = (
        tables.logprobs,
        backoffs,
        tables.parent,
        backoff_index,
        tables.prob_keys,
        tables.prob_index,
        tables.trans_keys,
        tables.trans_next,
    )
    layout = _blocks(nctx, len(tables.prob_keys), len(tables.logprobs), len(backoffs))
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
    backoff walk ends), a key stored twice, keys out of ascending order, a
    key that names no context, and a transition that does not lead to a
    later context of the table.  Equal backoff weights share one float
    object, and so do equal log probabilities once the kernel looks them up.
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
        # each block is read as it is used, in the order of the file
        blocks = (_read_block(path, fh, typecode, n) for typecode, n in layout)
        logprobs = next(blocks).tolist()
        if not (unk_log10 <= 0.0 and all(map(ge, repeat(0.0), logprobs))):
            raise MalformedTables(path, "a log probability is NaN or above 0")
        backoffs = next(blocks).tolist()
        if not all(map(gt, repeat(math.inf), backoffs)):
            raise MalformedTables(path, "a backoff weight is NaN or +inf")
        parent = next(blocks)
        if not (parent[0] == 0 and min(parent) >= 0 and all(map(lt, islice(parent, 1, None), range(1, nctx)))):
            raise MalformedTables(path, "a context link points outside the table")
        index = next(blocks)
        _check_index(path, index, backoffs)
        backoff = list(map(backoffs.__getitem__, index))
        del index
        prob_keys = next(blocks)
        _check_ascending(path, prob_keys, nctx * base, "log probability")
        prob_index = next(blocks)
        _check_index(path, prob_index, logprobs)
        trans_keys = next(blocks)
        _check_ascending(path, trans_keys, nctx * base, "transition")
        trans_next = next(blocks)
        # a key's context is below nctx, so a target above it is at least 1
        if trans_next and not (
            max(trans_next) < nctx and all(map(gt, trans_next, map(floordiv, trans_keys, repeat(base))))
        ):
            raise MalformedTables(path, "a transition does not lead to a later context of the table")
    return ScorerTables(
        order, base, token_ids, parent, backoff, prob_keys, prob_index, logprobs, trans_keys, trans_next, unk_log10
    )


def _check_ascending(path, keys: array, end: int, name: str) -> None:
    """Raise unless ``keys`` ascend strictly from 0 or more to below ``end``,
    the first key past the last context."""
    if not all(map(lt, keys, islice(keys, 1, None))):
        if all(map(le, keys, islice(keys, 1, None))):
            raise MalformedTables(path, "a key is stored twice")
        raise MalformedTables(path, "the %s keys are out of order" % name)
    if keys and not (keys[0] >= 0 and keys[-1] < end):
        raise MalformedTables(path, "a %s key names no context" % name)


def _check_index(path, index: array, values: list) -> None:
    """Raise unless every index falls inside ``values`` (a negative one
    cannot occur: the indexes are unsigned)."""
    if index and max(index) >= len(values):
        raise MalformedTables(path, "a value index points past its block")


def _read_block(path, fh, typecode: str, n: int) -> array:
    """The next ``n`` little-endian values of ``typecode`` from ``fh``, read
    straight into the array that holds them."""
    values = array(typecode, bytes(array(typecode).itemsize)) * n
    if fh.readinto(memoryview(values).cast("B")) != len(values) * values.itemsize:
        raise MalformedTables(path, "the file ended inside a block")
    if _SWAP:
        values.byteswap()
    return values
