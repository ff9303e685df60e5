"""Ingestion: 3-column parsing, chunk extraction, counts, serialization."""

import io

import pytest
from hypothesis import given, strategies as st

from templex.corpus import (
    AnnotatedSentence,
    AnnotatedToken,
    CountTable,
    IllegalBIO,
    MalformedLine,
    Template,
    extract_templates,
    inventory_lines,
    parse_conll,
    parse_inventory_lines,
    token_counts,
)


def test_minimal_two_token_sentence():
    sents = parse_conll(io.StringIO("the DT B-NP\ncat NN I-NP\n\n"))
    assert len(sents) == 1
    assert [t.surface for t in sents[0].tokens] == ["the", "cat"]
    assert [t.chunk for t in sents[0].tokens] == ["B-NP", "I-NP"]


def test_empty_input_gives_empty_list():
    assert parse_conll(io.StringIO("")) == []
    assert parse_conll(io.StringIO("\n\n\n")) == []


def test_missing_trailing_blank_line_still_closes_sentence():
    sents = parse_conll(io.StringIO("dogs NNS B-NP"))
    assert len(sents) == 1


def test_mini_fixture_hand_counts(mini_sentences):
    assert len(mini_sentences) == 3
    assert [len(s.tokens) for s in mini_sentences] == [9, 8, 7]


def test_wrong_column_count_reports_line_number():
    with pytest.raises(MalformedLine) as exc:
        parse_conll(io.StringIO("ok NN B-NP\nbad NN\n"))
    assert exc.value.lineno == 2


def test_bad_chunk_tag_rejected():
    with pytest.raises(MalformedLine) as exc:
        parse_conll(io.StringIO("x NN X-NP\n"))
    assert exc.value.lineno == 1


@pytest.mark.parametrize(
    "line",
    ["<unk> NN B-NP", "<s> DT O", "</s> NN I-NP", "x NN B-<unk>", "x NN B-<s>", "x NN B-</s>"]
    + ["__NN__ NN I-NP", "__x__ JJ O", "_____ NN I-NP", "__a_b__ NN I-NP"],
)
def test_reserved_model_symbols_rejected(line):
    # a word or chunk label equal to a model symbol would share its n-gram
    # entry (KN training overwrites a word's unigram with the OOV mass), and
    # a word of a gap's form would be the gap of every factored word of a POS
    with pytest.raises(MalformedLine) as exc:
        parse_conll(io.StringIO("the DT B-NP\n" + line + "\n"))
    assert exc.value.lineno == 2


def test_reserved_symbols_allowed_as_pos():
    # a POS of any form is legal, and so is a word merely near a gap's form
    text = "x <unk> B-NP\n__ __NN__ I-NP\n____ NN I-NP\n_x__ NN I-NP\n__x_ NN I-NP\n"
    (sent,) = parse_conll(io.StringIO(text))
    assert [t.pos for t in sent.tokens[:2]] == ["<unk>", "__NN__"]
    assert [t.surface for t in sent.tokens] == ["x", "__", "____", "_x__", "__x_"]


def test_illegal_bio_orphan_inside_tag():
    with pytest.raises(IllegalBIO) as exc:
        parse_conll(io.StringIO("the DT B-NP\nran VBD I-VP\n"))
    assert exc.value.lineno == 2


def test_illegal_bio_at_sentence_start():
    # the blank line resets the chunk state, so a sentence cannot open with I-
    with pytest.raises(IllegalBIO) as exc:
        parse_conll(io.StringIO("a DT B-NP\n\ncat NN I-NP\n"))
    assert exc.value.lineno == 3


def test_extract_forced_by_bio_segmentation():
    sent = AnnotatedSentence(
        (
            AnnotatedToken("the", "DT", "B-NP"),
            AnnotatedToken("cat", "NN", "I-NP"),
            AnnotatedToken("sat", "VBD", "B-VP"),
        )
    )
    inv = extract_templates([sent])
    got = {(" ".join(t.items), t.tag, t.count) for t in inv.templates}
    assert got == {("the cat", "NP", 1), ("sat", "VP", 1)}
    assert inv.total == 2
    assert inv.sentence_sequences == [(0, 1)]


def test_identical_chunks_merge_counts():
    sent = AnnotatedSentence(
        (AnnotatedToken("the", "DT", "B-NP"), AnnotatedToken("cat", "NN", "I-NP"))
    )
    inv = extract_templates([sent, sent])
    assert len(inv.templates) == 1
    assert inv.templates[0].count == 2
    assert inv.total == 2


MINI_INVENTORY = {
    ("The chairman", "NP", 1),
    ("said", "VP", 1),
    ("the offer", "NP", 2),
    ("was rejected", "VP", 2),
    ("yesterday", "ADVP", 2),
    (".", "O", 3),
    ("Investors", "NP", 1),
    ("sold", "VP", 1),
    ("shares", "NP", 1),
    ("in", "PP", 1),
    ("The offer", "NP", 1),
    ("by", "PP", 1),
    ("investors", "NP", 1),
}


def test_mini_fixture_inventory_matches_hand_enumeration(mini_sentences):
    inv = extract_templates(mini_sentences)
    got = {(" ".join(t.items), t.tag, t.count) for t in inv.templates}
    assert got == MINI_INVENTORY
    assert inv.total == 18
    assert sum(t.count for t in inv.templates) == inv.total


def test_o_tokens_become_single_templates(mini_sentences):
    inv = extract_templates(mini_sentences)
    o_templates = [t for t in inv.templates if t.tag == "O"]
    assert len(o_templates) == 1
    assert o_templates[0].items == (".",)
    assert o_templates[0].count == 3


def test_token_counts_tiny():
    sent = AnnotatedSentence(
        (
            AnnotatedToken("a", "DT", "O"),
            AnnotatedToken("a", "DT", "O"),
            AnnotatedToken("b", "NN", "O"),
        )
    )
    table = token_counts([sent])
    assert table.counts == {"a": 2, "b": 1}
    assert table.ranks == {"a": 1, "b": 2}


def test_token_counts_empty_corpus():
    table = token_counts([])
    assert table.counts == {} and table.ranks == {}


MINI_COUNTS = {
    "The": 2, "the": 2, "chairman": 1, "said": 1, "offer": 3, "was": 2,
    "rejected": 2, "yesterday": 2, ".": 3, "Investors": 1, "sold": 1,
    "shares": 1, "in": 1, "by": 1, "investors": 1,
}

MINI_RANKS = {
    ".": 1, "offer": 2, "The": 3, "rejected": 4, "the": 5, "was": 6,
    "yesterday": 7, "Investors": 8, "by": 9, "chairman": 10, "in": 11,
    "investors": 12, "said": 13, "shares": 14, "sold": 15,
}


def test_mini_fixture_counts_and_ranks_hand_checked(mini_sentences):
    table = token_counts(mini_sentences)
    assert table.counts == MINI_COUNTS
    assert table.ranks == MINI_RANKS


def test_desk_counts_match_brute_force(desk_sentences, desk_table):
    brute = {}
    for s in desk_sentences:
        for t in s.tokens:
            brute[t.surface] = brute.get(t.surface, 0) + 1
    assert desk_table.counts == brute
    # ranks are a permutation of 1..V
    assert sorted(desk_table.ranks.values()) == list(range(1, len(brute) + 1))


def test_unseen_words_rank_past_the_end(desk_table):
    assert desk_table.count("zzz-not-there") == 0
    assert desk_table.rank("zzz-not-there") == float("inf")


def test_rank_tie_break_is_lexicographic():
    table = CountTable.from_counts({"b": 3, "a": 3, "c": 1})
    assert table.ranks == {"a": 1, "b": 2, "c": 3}


def test_sentences_reconstruct_from_template_sequences(desk_sentences, desk_inventory):
    for sent, seq in zip(desk_sentences, desk_inventory.sentence_sequences):
        rebuilt = []
        for i in seq:
            rebuilt.extend(desk_inventory.templates[i].items)
        assert rebuilt == [t.surface for t in sent.tokens]


def test_total_equals_chunk_occurrences(desk_sentences, desk_inventory):
    assert desk_inventory.total == sum(
        len(seq) for seq in desk_inventory.sentence_sequences
    )
    assert sum(t.count for t in desk_inventory.templates) == desk_inventory.total


def test_serialization_deterministic(data_dir):
    a = parse_conll(open(data_dir / "desk.conll", encoding="utf-8"))
    b = parse_conll(open(data_dir / "desk.conll", encoding="utf-8"))
    assert list(inventory_lines(extract_templates(a))) == list(
        inventory_lines(extract_templates(b))
    )


def test_inventory_lines_sorted_by_count_then_lexicographic(desk_inventory):
    lines = list(inventory_lines(desk_inventory))
    keys = []
    for line in lines:
        count, tag, items = line.split("\t")
        keys.append((-int(count), tag, items))
    assert keys == sorted(keys)


def test_inventory_roundtrip_through_text(desk_inventory):
    lines = list(inventory_lines(desk_inventory))
    loaded = parse_inventory_lines(lines)
    assert len(loaded.templates) == len(lines)
    original = sorted(
        (t.tag, " ".join(t.items), t.count) for t in desk_inventory.templates
    )
    reloaded = sorted((t.tag, " ".join(t.items), t.count) for t in loaded.templates)
    assert original == reloaded
    assert loaded.total == desk_inventory.total


def test_parse_inventory_rejects_bad_lines():
    with pytest.raises(MalformedLine):
        parse_inventory_lines(["1\tNP"])
    with pytest.raises(MalformedLine):
        parse_inventory_lines(["x\tNP\tthe cat"])
    # counts below 1, empty items, blank or spaced tags and reserved model
    # symbols only come from a damaged file
    for line in ["0\tNP\tthe cat", "-4\tVP\truns", "3\tNP\t", "2\tPP\tin  the",
                 "1\t\tthe", "2\tN P\tcat", "1\t<unk>\tthe", "1\t</s>\tthe",
                 "2\tNP\tthe <unk>", "2\tNP\t<s> cat"]:
        with pytest.raises(MalformedLine):
            parse_inventory_lines([line])


def test_parse_inventory_accepts_a_gap_of_a_reserved_pos():
    (t,) = parse_inventory_lines(["3\tNP\tthe __<unk>__"]).templates
    assert t.items == ("the", "__<unk>__")


def test_template_identity_ignores_count():
    a = Template(("the",), "NP", 1, ("DT",))
    b = Template(("the",), "NP", 7, ("DT",))
    assert a == b and hash(a) == hash(b)


_tag = st.sampled_from(["NP", "VP", "PP", "ADVP"])
_word = st.text(alphabet="abcdefg", min_size=1, max_size=5)


@st.composite
def _bio_sentence(draw):
    chunks = draw(st.lists(st.tuples(_tag, st.lists(_word, min_size=1, max_size=3)), min_size=1, max_size=5))
    toks = []
    for tag, words in chunks:
        if draw(st.booleans()) and len(words) == 1:
            toks.append((words[0], "XX", "O"))
            continue
        for i, w in enumerate(words):
            toks.append((w, "XX", ("B-" if i == 0 else "I-") + tag))
    return toks


@given(_bio_sentence())
def test_random_bio_sentences_roundtrip(toks):
    text = "\n".join("%s %s %s" % t for t in toks) + "\n\n"
    sents = parse_conll(io.StringIO(text))
    assert len(sents) == 1
    inv = extract_templates(sents)
    rebuilt = [item for i in inv.sentence_sequences[0] for item in inv.templates[i].items]
    assert rebuilt == [t[0] for t in toks]
    assert inv.total == len(inv.sentence_sequences[0])
