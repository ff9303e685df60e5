"""Rare-word factoring: threshold semantics, merging, monotonicity."""

from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from templex.corpus import (
    GAP_RE,
    AnnotatedSentence,
    AnnotatedToken,
    CountTable,
    Template,
    extract_templates,
    inventory_lines,
    token_counts,
)
from templex.factoring import (
    FactorPolicy,
    factor_inventory,
    factor_token,
    factored_token_stream,
)


def _table(**counts):
    return CountTable.from_counts(dict(counts))


def test_absolute_count_below_threshold_factors():
    table = _table(w=99)
    assert factor_token("w", "NN", table, FactorPolicy("absolute", 100)) == "__NN__"


def test_absolute_count_at_threshold_stays_lexical():
    # "below a threshold" is strict: the boundary value is kept
    table = _table(w=100)
    assert factor_token("w", "NN", table, FactorPolicy("absolute", 100)) == "w"


def test_relative_rank_above_threshold_factors():
    counts = {"w%04d" % i: 2000 - i for i in range(1500)}
    table = CountTable.from_counts(counts)
    word = "w1000"  # rank 1001
    assert table.rank(word) == 1001
    assert factor_token(word, "JJ", table, FactorPolicy("relative", 1000)) == "__JJ__"
    boundary = "w0999"  # rank 1000 stays lexical
    assert factor_token(boundary, "JJ", table, FactorPolicy("relative", 1000)) == boundary


def test_unseen_words_factor_under_any_policy():
    table = _table(seen=5)
    for policy in (FactorPolicy("absolute", 1), FactorPolicy("relative", 10**9)):
        assert factor_token("unseen", "VB", table, policy) == "__VB__"


def test_policy_validation():
    with pytest.raises(ValueError):
        FactorPolicy("absolute", 0)
    with pytest.raises(ValueError):
        FactorPolicy("sometimes", 3)


def test_identity_policy_preserves_inventory(desk_inventory, desk_table):
    # every corpus word has count >= 1, so count < 1 never triggers
    out = factor_inventory(desk_inventory, desk_table, FactorPolicy("absolute", 1))
    assert out.templates == desk_inventory.templates
    assert [t.count for t in out.templates] == [t.count for t in desk_inventory.templates]
    assert out.sentence_sequences == desk_inventory.sentence_sequences


def test_newly_identical_templates_merge():
    sents = [
        AnnotatedSentence(
            (AnnotatedToken("the", "DT", "B-NP"), AnnotatedToken("cat", "NN", "I-NP"))
        ),
        AnnotatedSentence(
            (AnnotatedToken("the", "DT", "B-NP"), AnnotatedToken("dog", "NN", "I-NP"))
        ),
    ]
    inv = extract_templates(sents)
    table = token_counts(sents)  # the:2, cat:1, dog:1
    out = factor_inventory(inv, table, FactorPolicy("absolute", 2))
    assert len(out.templates) == 1
    merged = out.templates[0]
    assert merged.items == ("the", "__NN__")
    assert merged.tag == "NP" and merged.count == 2
    assert out.sentence_sequences == [(0,), (0,)]
    assert out.total == inv.total


def test_all_factor_limiting_case(desk_sentences, desk_table):
    stream = factored_token_stream(desk_sentences, desk_table, FactorPolicy("absolute", 10**9))
    for sent, toks in zip(desk_sentences, stream):
        assert toks == ["__%s__" % t.pos for t in sent.tokens]


def test_identity_policy_token_stream_is_surface(desk_sentences, desk_table):
    stream = factored_token_stream(desk_sentences, desk_table, FactorPolicy("absolute", 1))
    for sent, toks in zip(desk_sentences, stream):
        assert toks == [t.surface for t in sent.tokens]


def test_fixture_factoring_matches_brute_force(desk_sentences, desk_inventory, desk_table):
    policy = FactorPolicy("absolute", 2)
    out = factor_inventory(desk_inventory, desk_table, policy)

    # independent re-derivation: factor each original template by hand and
    # aggregate render-identical results
    expected = Counter()
    for t in desk_inventory.templates:
        rendered = tuple(
            "__%s__" % pos if desk_table.count(word) < 2 else word
            for word, pos in zip(t.items, t.pos)
        )
        expected[(t.tag, rendered)] += t.count
    got = Counter()
    for t in out.templates:
        got[(t.tag, t.items)] += t.count
    assert got == expected


def test_factoring_idempotent(desk_inventory, desk_table):
    policy = FactorPolicy("absolute", 3)
    once = factor_inventory(desk_inventory, desk_table, policy)
    twice = factor_inventory(once, desk_table, policy)
    assert once.templates == twice.templates
    assert once.sentence_sequences == twice.sentence_sequences


def test_factoring_preserves_tag_and_arity(desk_inventory, desk_table):
    out = factor_inventory(desk_inventory, desk_table, FactorPolicy("relative", 10))
    # merging can shrink the template list but never change any survivor's shape
    shapes_in = Counter((t.tag, len(t.items)) for t in desk_inventory.templates)
    shapes_out = Counter()
    for t in out.templates:
        shapes_out[(t.tag, len(t.items))] += 1
    for key, n in shapes_out.items():
        assert key in shapes_in and n <= shapes_in[key]
    assert out.total == desk_inventory.total


def test_factored_inventory_has_one_gap_object_per_pos(desk_inventory, desk_table):
    out = factor_inventory(desk_inventory, desk_table, FactorPolicy("absolute", 3))
    objects = {}  # each gap's value -> the ids of its string objects
    for t in out.templates:
        for item in t.items:
            if GAP_RE.match(item):
                objects.setdefault(item, set()).add(id(item))
    assert len(objects) > 1
    assert all(len(ids) == 1 for ids in objects.values())


def test_monotonicity_on_fixture(desk_inventory, desk_table):
    def unique(policy):
        return len(factor_inventory(desk_inventory, desk_table, policy).templates)

    assert unique(FactorPolicy("absolute", 2)) >= unique(FactorPolicy("absolute", 5))
    assert unique(FactorPolicy("relative", 50)) >= unique(FactorPolicy("relative", 10))


def test_gaps_pass_through_unchanged(desk_table):
    t = Template(("the", "merger"), "NP", 1, ("DT", "NN"))
    table = CountTable.from_counts({"the": 50})
    inv_once = factor_inventory(
        extract_templates([]), table, FactorPolicy("absolute", 2)
    )
    assert inv_once.templates == []
    # a gap keeps its POS regardless of the policy applied on top
    from templex.factoring import _factor_template

    ft = Template(_factor_template(t, FactorPolicy("absolute", 2).kept(table)), t.tag, 1, t.pos)
    assert ft.items == ("the", "__NN__")
    ft2_items = _factor_template(ft, FactorPolicy("absolute", 10**9).kept(table))
    assert ft2_items == ("__DT__", "__NN__")


def test_pos_ambiguous_templates_stay_apart():
    # the same word under two POS tags: one line of text, two templates that
    # factor to different gaps
    sents = [
        AnnotatedSentence((AnnotatedToken("plan", "NN", "B-NP"),)),
        AnnotatedSentence((AnnotatedToken("plan", "VB", "B-NP"),)),
    ]
    inv = extract_templates(sents)
    assert len(inv.templates) == 2
    assert list(inventory_lines(inv)) == ["2\tNP\tplan"]
    out = factor_inventory(inv, token_counts(sents), FactorPolicy("absolute", 3))
    assert len(out.templates) == 2
    assert list(inventory_lines(out)) == ["1\tNP\t__NN__", "1\tNP\t__VB__"]


# ------------------------------------------- kept-set factoring vs factor_token

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
        sentences.append(AnnotatedSentence(tuple(tokens)))
    return sentences


def _reference_factoring(inv, table, policy):
    """factor_inventory as one factor_token call per item, merging on
    Template identity in first-occurrence order."""
    merged: dict[Template, int] = {}
    remap = []
    for t in inv.templates:
        items = tuple(factor_token(w, p, table, policy) for w, p in zip(t.items, t.pos))
        ft = Template(items, t.tag, pos=t.pos)
        merged[ft] = merged.get(ft, 0) + t.count
        remap.append(list(merged).index(ft))
    templates = [(t.items, t.tag, c, t.pos) for t, c in merged.items()]
    return templates, [tuple(remap[i] for i in seq) for seq in inv.sentence_sequences]


def _gap_word_sentences(n_gap_word):
    """``n_gap_word`` uses of the corpus word "__NN__" beside gappable words."""
    tokens = [AnnotatedToken("__NN__", "JJ", "B-NP")] * n_gap_word
    tokens += [AnnotatedToken("x", "NN", "B-NP"), AnnotatedToken("y", "NN", "I-NP")]
    return [AnnotatedSentence(tuple(tokens)), AnnotatedSentence(tokens[-2:])]


@given(_sentences(), st.sampled_from(["absolute", "relative"]), st.integers(1, 8))
@example(_gap_word_sentences(5), "absolute", 3)  # the gap-spelled word is frequent
@example(_gap_word_sentences(1), "absolute", 3)  # ... and rare
@example(_gap_word_sentences(5), "relative", 1)
@example(_gap_word_sentences(1), "relative", 1)
def test_kept_set_factoring_matches_factor_token(sentences, mode, threshold):
    table = token_counts(sentences)
    policy = FactorPolicy(mode, threshold)
    stream = factored_token_stream(sentences, table, policy)
    assert stream == [
        [factor_token(t.surface, t.pos, table, policy) for t in s.tokens] for s in sentences
    ]
    out = factor_inventory(extract_templates(sentences), table, policy)
    templates, sequences = _reference_factoring(extract_templates(sentences), table, policy)
    assert [(t.items, t.tag, t.count, t.pos) for t in out.templates] == templates
    assert out.sentence_sequences == sequences
