"""Rare-word factoring: threshold semantics, merging, monotonicity."""

from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from oracles import factor_token, word_rank
from templex.corpus import (
    GAP_RE,
    AnnotatedToken,
    Template,
    extract_templates,
    inventory_lines,
    token_counts,
)
from templex.factoring import FactorPolicy, factor_inventory, factored_token_stream


def _factored(word, pos, counts, policy):
    """``word`` as the token stream renders it under ``policy``."""
    [[token]] = factored_token_stream([(AnnotatedToken(word, pos, "O"),)], policy.kept(counts))
    return token


def test_absolute_count_below_threshold_factors():
    counts = Counter(w=99)
    assert _factored("w", "NN", counts, FactorPolicy("absolute", 100)) == "__NN__"


def test_absolute_count_at_threshold_stays_lexical():
    # "below a threshold" is strict: the boundary value is kept
    counts = Counter(w=100)
    assert _factored("w", "NN", counts, FactorPolicy("absolute", 100)) == "w"


def test_relative_rank_above_threshold_factors():
    counts = Counter({"w%04d" % i: 2000 - i for i in range(1500)})
    policy = FactorPolicy("relative", 1000)
    assert len(policy.kept(counts)) == 1000
    word = "w1000"  # rank 1001
    assert word_rank(word, counts) == 1001
    assert _factored(word, "JJ", counts, policy) == "__JJ__"
    boundary = "w0999"  # rank 1000 stays lexical
    assert _factored(boundary, "JJ", counts, policy) == boundary


def test_relative_rank_ties_break_lexicographically():
    counts = Counter({"b": 3, "a": 3, "c": 1})
    assert FactorPolicy("relative", 1).kept(counts) == {"a"}
    assert FactorPolicy("relative", 2).kept(counts) == {"a", "b"}
    assert FactorPolicy("relative", 4).kept(counts) == {"a", "b", "c"}


def test_unseen_words_factor_under_any_policy():
    counts = Counter(seen=5)
    for policy in (FactorPolicy("absolute", 1), FactorPolicy("relative", 10**9)):
        assert _factored("unseen", "VB", counts, policy) == "__VB__"


def test_policy_validation():
    with pytest.raises(ValueError):
        FactorPolicy("absolute", 0)
    with pytest.raises(ValueError):
        FactorPolicy("sometimes", 3)


def test_none_policy_keeps_every_counted_word(desk_counts):
    policy = FactorPolicy("none")
    assert policy.threshold == 0
    assert policy.kept(desk_counts) == frozenset(desk_counts)
    with pytest.raises(ValueError):
        FactorPolicy("none", 1)


def test_identity_policy_preserves_inventory(desk_inventory, desk_counts):
    # every corpus word has count >= 1, so count < 1 never triggers
    out = factor_inventory(desk_inventory, FactorPolicy("absolute", 1).kept(desk_counts))
    assert out.templates == desk_inventory.templates
    assert [t.count for t in out.templates] == [t.count for t in desk_inventory.templates]
    assert out.sentence_sequences == desk_inventory.sentence_sequences


def test_newly_identical_templates_merge():
    sents = [
        (AnnotatedToken("the", "DT", "B-NP"), AnnotatedToken("cat", "NN", "I-NP")),
        (AnnotatedToken("the", "DT", "B-NP"), AnnotatedToken("dog", "NN", "I-NP")),
    ]
    inv = extract_templates(sents)
    counts = token_counts(sents)  # the:2, cat:1, dog:1
    out = factor_inventory(inv, FactorPolicy("absolute", 2).kept(counts))
    assert len(out.templates) == 1
    merged = out.templates[0]
    assert merged.items == ("the", "__NN__")
    assert merged.tag == "NP" and merged.count == 2
    assert out.sentence_sequences == [(0,), (0,)]


def test_all_factor_limiting_case(desk_sentences, desk_counts):
    kept = FactorPolicy("absolute", 10**9).kept(desk_counts)
    assert kept == frozenset()
    stream = factored_token_stream(desk_sentences, kept)
    for sent, toks in zip(desk_sentences, stream):
        assert toks == ["__%s__" % t.pos for t in sent]


def test_identity_policy_token_stream_is_surface(desk_sentences, desk_counts):
    stream = factored_token_stream(desk_sentences, FactorPolicy("absolute", 1).kept(desk_counts))
    for sent, toks in zip(desk_sentences, stream):
        assert toks == [t.surface for t in sent]


def test_fixture_factoring_matches_brute_force(desk_sentences, desk_inventory, desk_counts):
    out = factor_inventory(desk_inventory, FactorPolicy("absolute", 2).kept(desk_counts))

    # independent re-derivation: factor each original template by hand and
    # aggregate render-identical results
    expected = Counter()
    for t in desk_inventory.templates:
        rendered = tuple(
            "__%s__" % pos if desk_counts[word] < 2 else word
            for word, pos in zip(t.items, t.pos)
        )
        expected[(t.tag, rendered)] += t.count
    got = Counter()
    for t in out.templates:
        got[(t.tag, t.items)] += t.count
    assert got == expected


def test_factoring_idempotent(desk_inventory, desk_counts):
    kept = FactorPolicy("absolute", 3).kept(desk_counts)
    once = factor_inventory(desk_inventory, kept)
    twice = factor_inventory(once, kept)
    assert once.templates == twice.templates
    assert once.sentence_sequences == twice.sentence_sequences


def test_factoring_preserves_tag_and_arity(desk_inventory, desk_counts):
    out = factor_inventory(desk_inventory, FactorPolicy("relative", 10).kept(desk_counts))
    # merging can shrink the template list but never change any survivor's shape
    shapes_in = Counter((t.tag, len(t.items)) for t in desk_inventory.templates)
    shapes_out = Counter()
    for t in out.templates:
        shapes_out[(t.tag, len(t.items))] += 1
    for key, n in shapes_out.items():
        assert key in shapes_in and n <= shapes_in[key]
    # merging sums counts: no chunk occurrence is lost or made
    assert sum(t.count for t in out.templates) == sum(t.count for t in desk_inventory.templates)


def test_factored_inventory_has_one_gap_object_per_pos(desk_inventory, desk_counts):
    out = factor_inventory(desk_inventory, FactorPolicy("absolute", 3).kept(desk_counts))
    objects = {}  # each gap's value -> the ids of its string objects
    for t in out.templates:
        for item in t.items:
            if GAP_RE.match(item):
                objects.setdefault(item, set()).add(id(item))
    assert len(objects) > 1
    assert all(len(ids) == 1 for ids in objects.values())


def test_monotonicity_on_fixture(desk_inventory, desk_counts):
    def unique(policy):
        return len(factor_inventory(desk_inventory, policy.kept(desk_counts)).templates)

    assert unique(FactorPolicy("absolute", 2)) >= unique(FactorPolicy("absolute", 5))
    assert unique(FactorPolicy("relative", 50)) >= unique(FactorPolicy("relative", 10))


def test_gaps_pass_through_unchanged():
    t = Template(("the", "merger"), "NP", 1, ("DT", "NN"))
    counts = Counter({"the": 50})
    inv_once = factor_inventory(extract_templates([]), FactorPolicy("absolute", 2).kept(counts))
    assert inv_once.templates == []
    # a gap keeps its POS regardless of the policy applied on top
    from templex.factoring import _factor_template

    ft = Template(_factor_template(t, FactorPolicy("absolute", 2).kept(counts)), t.tag, 1, t.pos)
    assert ft.items == ("the", "__NN__")
    ft2_items = _factor_template(ft, FactorPolicy("absolute", 10**9).kept(counts))
    assert ft2_items == ("__DT__", "__NN__")


def test_pos_ambiguous_templates_stay_apart():
    # the same word under two POS tags: one line of text, two templates that
    # factor to different gaps
    sents = [
        (AnnotatedToken("plan", "NN", "B-NP"),),
        (AnnotatedToken("plan", "VB", "B-NP"),),
    ]
    inv = extract_templates(sents)
    assert len(inv.templates) == 2
    assert list(inventory_lines(inv)) == ["2\tNP\tplan"]
    out = factor_inventory(inv, FactorPolicy("absolute", 3).kept(token_counts(sents)))
    assert len(out.templates) == 2
    assert list(inventory_lines(out)) == ["1\tNP\t__NN__", "1\tNP\t__VB__"]


# ------------------------------- kept-set factoring vs the per-word oracle rule

_POS = ["NN", "VB", "DT"]
# "__NN__" is a corpus word spelled like a gap; it must factor as a word
_WORDS = ["a", "b", "c", "d", "e", "__NN__"]


@st.composite
def _sentences(draw):
    sentences = []
    for chunks in draw(st.lists(st.lists(st.tuples(
            st.sampled_from(["NP", "VP", "O"]),
            st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_POS)), min_size=1, max_size=3),
    ), min_size=1, max_size=4), min_size=1, max_size=6)):
        tokens = []
        for tag, words in chunks:
            for i, (word, pos) in enumerate(words):
                chunk = "O" if tag == "O" else ("B-" if i == 0 else "I-") + tag
                tokens.append(AnnotatedToken(word, pos, chunk))
        sentences.append(tuple(tokens))
    return sentences


def _reference_factoring(inv, counts, mode, threshold):
    """factor_inventory as one factor_token call per item, merging on
    Template identity in first-occurrence order."""
    merged: dict[Template, int] = {}
    remap = []
    for t in inv.templates:
        items = tuple(factor_token(w, p, counts, mode, threshold) for w, p in zip(t.items, t.pos))
        ft = Template(items, t.tag, pos=t.pos)
        merged[ft] = merged.get(ft, 0) + t.count
        remap.append(list(merged).index(ft))
    templates = [(t.items, t.tag, c, t.pos) for t, c in merged.items()]
    return templates, [tuple(remap[i] for i in seq) for seq in inv.sentence_sequences]


def _gap_word_sentences(n_gap_word):
    """``n_gap_word`` uses of the corpus word "__NN__" beside gappable words."""
    tokens = [AnnotatedToken("__NN__", "JJ", "B-NP")] * n_gap_word
    tokens += [AnnotatedToken("x", "NN", "B-NP"), AnnotatedToken("y", "NN", "I-NP")]
    return [tuple(tokens), tuple(tokens[-2:])]


@given(_sentences(), st.sampled_from(["absolute", "relative"]), st.integers(1, 8))
@example(_gap_word_sentences(5), "absolute", 3)  # the gap-spelled word is frequent
@example(_gap_word_sentences(1), "absolute", 3)  # ... and rare
@example(_gap_word_sentences(5), "relative", 1)
@example(_gap_word_sentences(1), "relative", 1)
def test_kept_set_factoring_matches_factor_token(sentences, mode, threshold):
    counts = token_counts(sentences)
    kept = FactorPolicy(mode, threshold).kept(counts)
    stream = factored_token_stream(sentences, kept)
    assert stream == [
        [factor_token(t.surface, t.pos, counts, mode, threshold) for t in s] for s in sentences
    ]
    out = factor_inventory(extract_templates(sentences), kept)
    templates, sequences = _reference_factoring(
        extract_templates(sentences), counts, mode, threshold
    )
    assert [(t.items, t.tag, t.count, t.pos) for t in out.templates] == templates
    assert out.sentence_sequences == sequences
