"""Query semantics of the trained model: backoff walk, OOV, sequences."""

import math
import random

import pytest

from templex.ngram import BOS, EOS, train
from templex.kernels import DEFAULT_BACKEND
from templex.ngram.model import LOG_FLOOR


def test_stored_top_order_grams_score_as_stored(token_lm3):
    for g, lp in token_lm3.logprobs.items():
        if len(g) != token_lm3.order or g[-1] == "<unk>":
            continue
        assert token_lm3.scorer.logprob(g[:-1], g[-1]) == pytest.approx(lp, abs=1e-12)


def test_stored_lower_order_grams_score_as_stored(sig_lm5):
    # shorter contexts are served directly from the lower-order tables
    for g, lp in sig_lm5.logprobs.items():
        if g[-1] == "<unk>" or len(g) == sig_lm5.order:
            continue
        assert sig_lm5.scorer.logprob(g[:-1], g[-1]) == pytest.approx(lp, abs=1e-12)


def test_backoff_walk_matches_oracle_on_random_queries(token_lm3, token_oracle):
    rng = random.Random(91)
    words = sorted(token_lm3.vocab)
    for _ in range(500):
        ctx = tuple(rng.choice(words) for _ in range(rng.randrange(0, 4)))
        w = rng.choice(words)
        assert token_lm3.scorer.logprob(ctx, w) == pytest.approx(
            token_oracle.logprob(ctx, w), abs=1e-9
        ), (ctx, w)


def test_signature_model_matches_oracle(sig_lm5, sig_oracle):
    rng = random.Random(92)
    words = sorted(sig_lm5.vocab)
    for _ in range(300):
        ctx = tuple(rng.choice(words) for _ in range(rng.randrange(0, 6)))
        w = rng.choice(words)
        assert sig_lm5.scorer.logprob(ctx, w) == pytest.approx(
            sig_oracle.logprob(ctx, w), abs=1e-9
        )


def test_oov_token_scores_as_unk(token_lm3):
    assert "zzz-never-seen" not in token_lm3.vocab
    assert token_lm3.scorer.logprob((), "zzz-never-seen") == pytest.approx(
        token_lm3.unk_log10, abs=1e-12
    )
    # an in-vocab context does not change the OOV unigram fallback
    some = sorted(token_lm3.vocab)[0]
    assert token_lm3.scorer.logprob((some,), "zzz-never-seen") == pytest.approx(
        token_lm3.unk_log10 + token_lm3.backoffs.get((some,), 0.0), abs=1e-12
    )


def test_unk_mass_is_bounded(token_lm3, sig_lm5):
    for m in (token_lm3, sig_lm5):
        assert m.unk_log10 >= LOG_FLOOR
        # strictly below the uniform share: it is the discounted share of it
        assert m.unk_log10 < math.log10(1.0 / len(m.vocab))


def test_no_query_returns_minus_inf(token_lm3):
    rng = random.Random(93)
    words = sorted(token_lm3.vocab) + ["oov-a", "oov-b"]
    for _ in range(200):
        ctx = tuple(rng.choice(words) for _ in range(rng.randrange(0, 4)))
        lp = token_lm3.scorer.logprob(ctx, rng.choice(words))
        assert math.isfinite(lp) and lp < 0.0


def test_interpolation_strictly_exceeds_pass_through(token_lm3):
    # every raw-evidence top-order gram keeps some discounted mass of its own,
    # so its stored value must beat the pure backoff route
    for g, lp in token_lm3.logprobs.items():
        if len(g) != token_lm3.order:
            continue
        route = token_lm3.backoffs[g[:-1]] + token_lm3.logprobs[g[1:]]
        assert lp > route


def test_context_truncated_to_model_order(token_lm3):
    rng = random.Random(94)
    words = sorted(token_lm3.vocab)
    for _ in range(100):
        ctx = tuple(rng.choice(words) for _ in range(5))
        w = rng.choice(words)
        assert token_lm3.scorer.logprob(ctx, w) == token_lm3.scorer.logprob(ctx[-2:], w)


def test_sequence_logprob_unigram_hand_sum():
    m = train([["a"]], 1)
    assert m.scorer.sequence_logprob(["a"]) == pytest.approx(m.logprobs[("a",)], abs=1e-12)
    assert m.scorer.sequence_logprob(["a"], with_boundaries=True) == pytest.approx(
        m.logprobs[("a",)] + m.logprobs[(EOS,)], abs=1e-12
    )


def test_sequence_logprob_bigram_hand_sum():
    m = train([["a", "b"], ["a", "c"]], 2)
    inner = m.scorer.logprob((), "a") + m.scorer.logprob(("a",), "b")
    assert m.scorer.sequence_logprob(["a", "b"]) == pytest.approx(inner, abs=1e-12)
    padded = (
        m.scorer.logprob((BOS,), "a")
        + m.scorer.logprob(("a",), "b")
        + m.scorer.logprob(("b",), EOS)
    )
    assert m.scorer.sequence_logprob(["a", "b"], with_boundaries=True) == pytest.approx(
        padded, abs=1e-12
    )


def test_sequence_logprob_grows_context_left_to_right(token_lm3, token_oracle):
    rng = random.Random(95)
    words = sorted(w for w in token_lm3.vocab if w not in (BOS, EOS))
    for _ in range(50):
        toks = [rng.choice(words) for _ in range(rng.randrange(1, 9))]
        for bounded in (False, True):
            assert token_lm3.scorer.sequence_logprob(toks, bounded) == pytest.approx(
                token_oracle.seq_logprob(toks, bounded), abs=1e-9
            )


def test_empty_sequence_rejected(token_lm3):
    with pytest.raises(ValueError):
        token_lm3.scorer.sequence_logprob([])


def test_prob_is_exponentiated_logprob(token_lm3):
    w = sorted(token_lm3.vocab)[3]
    # a stored unigram's probability is its stored log10 value, exponentiated
    assert 10 ** token_lm3.scorer.logprob((), w) == pytest.approx(
        10 ** token_lm3.logprobs[(w,)], rel=1e-15
    )


def test_module_level_helpers_delegate(token_lm3):
    w = sorted(token_lm3.vocab)[5]
    # the string API only encodes; the kernel's id-level entry points score
    sc = token_lm3.scorer
    ctx = tuple(sorted(token_lm3.vocab)[1:3])
    assert sc.logprob(ctx, w) == sc.kernel.logprob_ids(sc.encode(ctx), sc.tables.encode(w))
    seq = list(ctx) + [w]
    for bounded in (False, True):
        assert sc.sequence_logprob(seq, bounded) == sc.kernel.sequence_logprob_ids(
            sc.encode(seq), bounded
        )


def test_scorer_is_cached(token_lm3):
    assert token_lm3.scorer is token_lm3.scorer
    assert token_lm3.scorer.backend == DEFAULT_BACKEND
