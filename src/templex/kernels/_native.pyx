# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Native scoring kernel: the backoff walks over packed tables in C++ maps.

Mirrors templex.kernels.pykernel step for step; both backends must return
bit-identical values.
"""

from cython.operator cimport dereference as deref
from libc.stdint cimport int64_t
from libcpp.unordered_map cimport unordered_map
from libcpp.vector cimport vector

cdef double LOG_FLOOR = -99.0  # templex.ngram.counts.LOG_FLOOR as a C constant


cdef class NativeScorer:
    cdef public object t  # the ScorerTables this kernel was built from
    cdef int order
    cdef int64_t base
    cdef double unk_log10
    cdef int64_t bos_state_c, eos_id_c
    cdef vector[int64_t] parent
    cdef vector[int] ctx_len
    cdef vector[double] backoff
    cdef unordered_map[int64_t, double] probs
    cdef unordered_map[int64_t, int64_t] trans

    def __init__(self, tables):
        self.t = tables
        self.order = tables.order
        self.base = tables.base
        self.unk_log10 = tables.unk_log10
        self.bos_state_c = tables.bos_state
        self.eos_id_c = tables.eos_id
        for v in tables.parent:
            self.parent.push_back(v)
        for v in tables.ctx_len:
            self.ctx_len.push_back(v)
        for v in tables.backoff:
            self.backoff.push_back(v)
        self.probs.reserve(len(tables.probs))
        for k, p in tables.probs.items():
            self.probs[k] = p
        self.trans.reserve(len(tables.trans))
        for k, c in tables.trans.items():
            self.trans[k] = c

    @property
    def backend(self):
        return "native"

    cdef double _score(self, int64_t state, int64_t tid) noexcept nogil:
        cdef int64_t s = state
        cdef double acc = 0.0
        cdef double lp = 0.0
        cdef unordered_map[int64_t, double].iterator hit
        while True:
            hit = self.probs.find(s * self.base + tid)
            if hit != self.probs.end():
                lp = acc + deref(hit).second
                break
            if s == 0:
                lp = acc + self.unk_log10
                break
            acc += self.backoff[s]
            s = self.parent[s]
        if lp < LOG_FLOOR:
            lp = LOG_FLOOR
        return lp

    cdef int64_t _advance(self, int64_t state, int64_t tid) noexcept nogil:
        cdef int64_t u = state
        cdef unordered_map[int64_t, int64_t].iterator hit
        while u != 0 and self.ctx_len[u] >= self.order - 1:
            u = self.parent[u]
        while True:
            hit = self.trans.find(u * self.base + tid)
            if hit != self.trans.end():
                return deref(hit).second
            if u == 0:
                return 0
            u = self.parent[u]

    def score(self, state, tid):
        cdef int64_t s = state
        return self._score(s, tid)

    def advance(self, state, tid):
        cdef int64_t s = state
        return self._advance(s, tid)

    def score_step(self, state, tid):
        cdef int64_t s = state
        cdef int64_t x = tid
        return self._score(s, x), self._advance(s, x)

    def walk(self, state, tids):
        cdef int64_t s = state
        for tid in tids:
            s = self._advance(s, tid)
        return s

    def logprob_ids(self, context_ids, tid):
        cdef int64_t s = 0
        cdef Py_ssize_t n = len(context_ids)
        cdef Py_ssize_t start = n
        cdef Py_ssize_t i
        if self.order > 1:
            start = n - (self.order - 1)
            if start < 0:
                start = 0
        for i in range(start, n):
            s = self._advance(s, context_ids[i])
        return self._score(s, tid)

    def sequence_logprob_ids(self, tids, bint with_boundaries):
        cdef int64_t state = self.bos_state_c if with_boundaries else 0
        cdef double total = 0.0
        cdef int64_t tid
        for x in tids:
            tid = x
            total += self._score(state, tid)
            state = self._advance(state, tid)
        if with_boundaries:
            total += self._score(state, self.eos_id_c)
        return total
