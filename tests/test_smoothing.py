"""Discount estimation and the trained model's probability laws."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import chen_goodman
from templex.ngram import BOS, EOS, UNK, count_ngrams, estimate_discounts, train, train_kn
from templex.ngram.smoothing import _order_discounts


def test_unit_count_of_counts_hand_values():
    # n1..n4 = 1: Y = 1/3, D1 = 1 - 2/3 = 1/3, D2 = 2 - 1 = 1, D3+ = 3 - 4/3
    d1, d2, d3 = _order_discounts(1, 1, 1, 1)
    assert d1 == pytest.approx(1 / 3, abs=1e-12)
    assert d2 == pytest.approx(1.0, abs=1e-12)
    assert d3 == pytest.approx(5 / 3, abs=1e-12)


def test_degenerate_counts_fall_back():
    assert _order_discounts(3, 0, 2, 1) == (0.5, 0.5, 0.5)
    assert _order_discounts(0, 0, 0, 0) == (0.5, 0.5, 0.5)
    assert _order_discounts(5, 2, 1, 0) == (0.5, 0.5, 0.5)


@given(st.tuples(*[st.integers(0, 500)] * 4))
def test_discounts_always_in_bounds(ns):
    for k, d in enumerate(_order_discounts(*ns), start=1):
        assert 0.0 < d < k


def test_estimate_matches_independent_formulas(desk_token_seqs):
    counts = count_ngrams(desk_token_seqs, 3)
    discounts = estimate_discounts(counts)
    for k in range(1, 4):
        assert discounts[k - 1] == pytest.approx(chen_goodman(counts.used[k - 1]), abs=1e-15)


def test_fixture_trigram_discounts_hand_computed(desk_token_seqs):
    counts = count_ngrams(desk_token_seqs, 3)
    n1, n2, n3, n4 = counts.count_of_counts(3)
    if 0 in (n1, n2, n3, n4):
        expected = (0.5, 0.5, 0.5)
    else:
        y = Fraction(n1, n1 + 2 * n2)
        raw = (
            float(1 - 2 * y * Fraction(n2, n1)),
            float(2 - 3 * y * Fraction(n3, n2)),
            float(3 - 4 * y * Fraction(n4, n3)),
        )
        expected = tuple(
            min(max(d, 1e-6), cap - 1e-6) for d, cap in zip(raw, (1.0, 2.0, 3.0))
        )
    assert estimate_discounts(counts)[2] == pytest.approx(expected, abs=1e-9)


def test_two_event_corpus_closed_form():
    # corpus ["a"], order 1: used counts a:1, </s>:1, total 2; degenerate
    # count-of-counts -> D = 0.5; discount mass 1.0, gamma = 1/2; V = 3
    # (a, <s>, </s>), uniform 1/3.
    #   P(a) = (1 - 0.5)/2 + (1/2)(1/3) = 5/12
    #   P(</s>) = 5/12
    #   P(<s>) = 0 + 1/6
    m = train([["a"]], 1)
    assert 10 ** m.logprobs[("a",)] == pytest.approx(5 / 12, abs=1e-12)
    assert 10 ** m.logprobs[(EOS,)] == pytest.approx(5 / 12, abs=1e-12)
    assert 10 ** m.logprobs[(BOS,)] == pytest.approx(1 / 6, abs=1e-12)
    assert 10 ** m.logprobs[(UNK,)] == pytest.approx(1 / 6, abs=1e-12)
    total = sum(10 ** m.logprobs[(w,)] for w in m.vocab)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_stored_probabilities_nonpositive(token_lm3, sig_lm5):
    for m in (token_lm3, sig_lm5):
        assert all(lp <= 0.0 for lp in m.logprobs.values())
        assert all(d > 0 for d in (10 ** b for b in m.backoffs.values()))


def test_normalization_over_observed_contexts(token_lm3):
    sc = token_lm3.scorer
    contexts = {g[:-1] for g in token_lm3.logprobs if len(g) > 1}
    for ctx in contexts:
        total = sum(10 ** sc.logprob(ctx, w) for w in token_lm3.vocab)
        assert total == pytest.approx(1.0, abs=1e-6), ctx


def test_unk_probability_is_uniform_share(token_lm3, desk_token_seqs):
    # the out-of-vocabulary mass equals the unigram interpolation floor
    counts = count_ngrams(desk_token_seqs, 3)
    used = counts.used[0]
    d = estimate_discounts(counts)[0]
    total = sum(used.values())
    mass = sum(d[0] if c == 1 else d[1] if c == 2 else d[2] for c in used.values())
    expected = (mass / total) / len(token_lm3.vocab)
    assert 10 ** token_lm3.unk_log10 == pytest.approx(expected, rel=1e-12)


def test_train_kn_equals_train_convenience(desk_sig_seqs):
    counts = count_ngrams(desk_sig_seqs, 5)
    a = train_kn(counts, estimate_discounts(counts))
    b = train(desk_sig_seqs, 5)
    assert a.logprobs == b.logprobs
    assert a.backoffs == b.backoffs


def test_train_kn_consumes_the_counts(desk_sig_seqs):
    counts = count_ngrams(desk_sig_seqs, 5)
    train_kn(counts, estimate_discounts(counts))
    assert counts.used == [None] * 5


def test_every_stored_context_has_pass_through_entry(token_lm3):
    # any gram carrying a backoff weight must itself be scoreable
    for h in token_lm3.backoffs:
        assert h in token_lm3.logprobs
    # and every stored gram's suffix chain is stored (ARPA well-formedness)
    for g in token_lm3.logprobs:
        if g[-1] == UNK:
            continue
        for i in range(1, len(g)):
            assert g[i:] in token_lm3.logprobs


def test_bos_run_is_the_only_synthesized_gram(token_lm3, desk_token_seqs):
    # grams with estimation evidence: every vocab unigram, plus grams with a
    # nonzero used count at their order.  (<s>, <s>) occurs only inside the
    # left padding, so nothing ever precedes it and its continuation count is
    # zero; it is materialized purely as a backoff pass-through.
    counts = count_ngrams(desk_token_seqs, 3)
    estimated = {(w,) for w in token_lm3.vocab}
    estimated.update(counts.used[1])
    estimated.update(counts.used[2])
    synthesized = [
        g for g in token_lm3.logprobs if g not in estimated and g[-1] != UNK
    ]
    assert synthesized == [(BOS, BOS)]
    lp = token_lm3.logprobs[(BOS, BOS)]
    expect = token_lm3.backoffs[(BOS,)] + token_lm3.logprobs[(BOS,)]
    assert lp == pytest.approx(expect, abs=1e-12)
