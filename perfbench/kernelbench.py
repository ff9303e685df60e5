"""Kernel micro-benchmark: single-query and whole-sequence rates per backend.

Trains a seeded synthetic order-3 model (3,000 sentences over 800 words),
encodes random queries once, then times the kernels' id-level entry points
on every built backend.  Backends must agree bit for bit on every result;
with one backend built there is nothing to compare, and the note says so.
"""

from __future__ import annotations

import random
import statistics
import time

from templex.kernels import available_backends, make_scorer
from templex.ngram import train

SENTENCES = 3000
VOCAB = 800
ORDER = 3
QUERIES = 200_000
REPEATS = 3


def synthetic_corpus(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    vocab = ["w%04d" % i for i in range(VOCAB)]
    return [
        [vocab[min(int(rng.expovariate(8.0 / VOCAB)), VOCAB - 1)] for _ in range(rng.randint(3, 18))]
        for _ in range(SENTENCES)
    ]


def build_queries(model, seed: int):
    rng = random.Random(seed)
    words = sorted(model.vocab) + ["out-of-vocab"]
    single = [
        (tuple(rng.choice(words) for _ in range(rng.randrange(0, model.order))), rng.choice(words))
        for _ in range(QUERIES)
    ]
    seqs = [[rng.choice(words) for _ in range(rng.randint(3, 18))] for _ in range(QUERIES // 50)]
    return single, seqs


def time_backend(model, backend: str, single, seqs):
    scorer = make_scorer(model, backend)
    enc_single = [(scorer.encode(ctx), scorer.tables.encode(w)) for ctx, w in single]
    enc_seqs = [scorer.encode(s) for s in seqs]
    logprob_ids = scorer.kernel.logprob_ids
    sequence_ids = scorer.kernel.sequence_logprob_ids
    single_rates, seq_rates = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        checks = [logprob_ids(ctx, w) for ctx, w in enc_single]
        t1 = time.perf_counter()
        seq_checks = [sequence_ids(ids, True) for ids in enc_seqs]
        t2 = time.perf_counter()
        single_rates.append(len(enc_single) / (t1 - t0))
        seq_rates.append(len(enc_seqs) / (t2 - t1))
    return statistics.median(single_rates), statistics.median(seq_rates), checks, seq_checks


def run(seed: int):
    """({backend: (single q/s, sequences/s)}, problems, note)."""
    model = train(synthetic_corpus(seed), ORDER)
    single, seqs = build_queries(model, seed + 1)
    rates, problems = {}, []
    reference = None
    for backend in available_backends():
        q, s, checks, seq_checks = time_backend(model, backend, single, seqs)
        rates[backend] = (q, s)
        if reference is None:
            reference = (backend, checks, seq_checks)
        elif (checks, seq_checks) != reference[1:]:
            problems.append("kernel backends %s and %s disagree" % (reference[0], backend))
    if len(rates) > 1:
        note = "backends %s agree bit for bit" % ", ".join(rates)
    else:
        note = "only the %s backend is built; cross-backend identity not checked" % next(iter(rates))
    return rates, problems, note
