"""Padded n-gram counting and continuation counts."""

import pytest
from hypothesis import given, strategies as st

from oracles import brute_count
from templex.ngram import BOS, EOS, UNK, EmptyCorpus, count_ngrams, train


def test_bigram_counts_forced_by_padding():
    c = count_ngrams([["a", "b"]], 2)
    assert c.used[1] == {(BOS, "a"): 1, ("a", "b"): 1, ("b", EOS): 1}


def test_unigram_counts_no_padding():
    # an order-1 model reads raw unigram counts
    c = count_ngrams([["a"]], 1)
    assert c.used == [{("a",): 1, (EOS,): 1}]


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        count_ngrams([], 3)


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        count_ngrams([["a"], []], 2)


@pytest.mark.parametrize("symbol", [BOS, EOS, UNK])
def test_reserved_symbol_in_a_sequence_rejected(symbol):
    # a word spelled like a model symbol would share its n-gram entry: KN
    # training overwrites a word "<unk>"'s unigram with the OOV mass
    seqs = [["a", "b"], ["a", symbol, "b"], ["c"]]
    with pytest.raises(ValueError, match=r"position 1 .*%s" % symbol):
        count_ngrams(seqs, 2)
    with pytest.raises(ValueError, match="reserved symbol"):
        train(seqs, 2)


def test_order_validation():
    with pytest.raises(ValueError):
        count_ngrams([["a"]], 0)


def test_vocab_includes_boundary_symbols():
    c = count_ngrams([["x", "y"]], 3)
    assert c.vocab == frozenset({"x", "y", BOS, EOS})


def test_continuation_counts_small():
    # corpus: "a b", "c b" -> bigram types (<s>,a),(a,b),(b,</s>),(<s>,c),(c,b)
    c = count_ngrams([["a", "b"], ["c", "b"]], 2)
    assert c.used[0] == {("a",): 1, ("b",): 2, ("c",): 1, (EOS,): 1}


def test_used_counts_are_raw_at_top_and_continuation_below():
    c = count_ngrams([["a", "b"], ["a", "b"]], 2)
    assert c.used[1] == {(BOS, "a"): 2, ("a", "b"): 2, ("b", EOS): 2}
    assert c.used[0] == {("a",): 1, ("b",): 1, (EOS,): 1}


def _assert_counts_match_brute_force(seqs, order):
    """Used counts equal the window scan's, in its order of first occurrence."""
    c = count_ngrams(seqs, order)
    raw, cont = brute_count(seqs, order)
    assert len(c.used) == order
    for k in range(1, order + 1):
        expected = raw[k] if k == order else cont[k]
        assert list(c.used[k - 1].items()) == list(expected.items()), "mismatch at order %d" % k


def test_desk_counts_match_brute_force(desk_token_seqs):
    _assert_counts_match_brute_force(desk_token_seqs, 3)


@given(
    st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6), min_size=1, max_size=6),
    st.integers(1, 6),
)
def test_counts_match_brute_force(seqs, order):
    _assert_counts_match_brute_force(seqs, order)


def test_count_of_counts_consistent(desk_sig_seqs):
    c = count_ngrams(desk_sig_seqs, 5)
    for k in range(1, 6):
        n1, n2, n3, n4 = c.count_of_counts(k)
        used = c.used[k - 1]
        assert n1 == sum(1 for v in used.values() if v == 1)
        assert n2 == sum(1 for v in used.values() if v == 2)
        assert n3 == sum(1 for v in used.values() if v == 3)
        assert n4 == sum(1 for v in used.values() if v == 4)
