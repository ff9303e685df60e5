"""The pure-Python scoring kernel, the only one built.

It walks the packed tables of ``tables.py``: ``parent``, ``backoff``, the
log probability columns ``prob_keys``, ``prob_index`` and ``logprobs``, and
the transition columns ``trans_keys`` and ``trans_next``, all as loaded from
the file, and ``eos_id`` and ``bos_state`` as worked out when the tables are
made or loaded.  It reads the two keyed columns through rows, made the first
time a walk reaches a context: context ``c``'s run of keys from ``c * base``
to ``(c + 1) * base``, found by bisection (``_run``), becomes c's map of
token id to its log probability (``probabilities``, a float object of
``logprobs``) or to the context the token leads to (``transitions``).  So a
run builds rows only for the contexts its queries reach.  A compiled kernel
in the ``_native`` slot must return bit-identical results.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import sub
from typing import TYPE_CHECKING

from ..ngram.counts import LOG_FLOOR

if TYPE_CHECKING:
    from array import array

    from .tables import ScorerTables


def _run(keys: array, base: int, c: int):
    """The token ids of context ``c``'s run of the ascending ``keys``, and
    the slice of the run."""
    first = c * base
    lo = bisect_left(keys, first)
    hi = bisect_left(keys, first + base, lo)
    return map(sub, keys[lo:hi], repeat(first)), slice(lo, hi)


def probabilities(t: ScorerTables, c: int) -> dict[int, float]:
    """Context ``c``'s stored log probabilities by token id."""
    tids, run = _run(t.prob_keys, t.base, c)
    return dict(zip(tids, map(t.logprobs.__getitem__, t.prob_index[run])))


def transitions(t: ScorerTables, c: int) -> dict[int, int]:
    """The context each token id leads to from context ``c``."""
    tids, run = _run(t.trans_keys, t.base, c)
    return dict(zip(tids, t.trans_next[run]))


class PyScorer:
    backend = "python"

    def __init__(self, tables: ScorerTables):
        self.t = tables
        # each context's rows, or None until a walk first reaches it
        self.rows: list[dict[int, float] | None] = [None] * len(tables.parent)
        self.steps: list[dict[int, int] | None] = [None] * len(tables.parent)

    def score(self, state: int, tid: int) -> float:
        """log10 prob of tid in state: back off until a stored gram is found."""
        t = self.t
        rows = self.rows
        parent = t.parent
        s = state
        acc = 0.0
        while True:
            row = rows[s]
            if row is None:
                row = rows[s] = probabilities(t, s)
            lp = row.get(tid)
            if lp is not None:
                lp += acc
                break
            if s == 0:
                lp = acc + t.unk_log10
                break
            acc += t.backoff[s]
            s = parent[s]
        if lp < LOG_FLOOR:
            lp = LOG_FLOOR
        return lp

    def advance(self, state: int, tid: int) -> int:
        """State after consuming tid: the longest stored context that ends
        the history, at most order - 1 tokens long.  No context of order - 1
        tokens is ever extended, so from one the first lookup misses and the
        walk backs off as from any other."""
        t = self.t
        steps = self.steps
        parent = t.parent
        u = state
        while True:
            row = steps[u]
            if row is None:
                row = steps[u] = transitions(t, u)
            nxt = row.get(tid)
            if nxt is not None:
                return nxt
            if u == 0:
                return 0
            u = parent[u]

    def score_step(self, state: int, tid: int) -> tuple[float, int]:
        """(log10 prob of tid in state, state after consuming tid)."""
        return self.score(state, tid), self.advance(state, tid)

    def walk(self, state: int, tids) -> int:
        """Advance the context state through tids without scoring."""
        for tid in tids:
            state = self.advance(state, tid)
        return state

    def logprob_ids(self, context_ids, tid: int) -> float:
        state = self.walk(0, context_ids[-(self.t.order - 1) :] if self.t.order > 1 else ())
        return self.score(state, tid)

    def sequence_logprob_ids(self, tids, with_boundaries: bool) -> float:
        state = self.t.bos_state if with_boundaries else 0
        total = 0.0
        for tid in tids:
            total += self.score(state, tid)
            state = self.advance(state, tid)
        if with_boundaries:
            total += self.score(state, self.t.eos_id)
        return total
