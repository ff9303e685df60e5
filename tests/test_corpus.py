"""Ingestion: 3-column parsing, chunk extraction, counts, serialization."""

import io
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from templex.corpus import (
    AnnotatedToken,
    IllegalBIO,
    MalformedLine,
    Template,
    extract_templates,
    inventory_lines,
    parse_conll,
    parse_conll_file,
    parse_inventory_lines,
    token_counts,
)
from templex.factoring import FactorPolicy

from oracles import OracleMalformedLine, parse_inventory


def test_minimal_two_token_sentence():
    sents = parse_conll(io.StringIO("the DT B-NP\ncat NN I-NP\n\n"))
    assert len(sents) == 1
    assert [t.surface for t in sents[0]] == ["the", "cat"]
    assert [t.chunk for t in sents[0]] == ["B-NP", "I-NP"]


def test_empty_input_gives_empty_list():
    assert parse_conll(io.StringIO("")) == []
    assert parse_conll(io.StringIO("\n\n\n")) == []


def test_missing_trailing_blank_line_still_closes_sentence():
    sents = parse_conll(io.StringIO("dogs NNS B-NP"))
    assert len(sents) == 1


def test_mini_fixture_hand_counts(mini_sentences):
    assert len(mini_sentences) == 3
    assert [len(s) for s in mini_sentences] == [9, 8, 7]


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
    assert [t.pos for t in sent[:2]] == ["<unk>", "__NN__"]
    assert [t.surface for t in sent] == ["x", "__", "____", "_x__", "__x_"]


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
    sent = (
        AnnotatedToken("the", "DT", "B-NP"),
        AnnotatedToken("cat", "NN", "I-NP"),
        AnnotatedToken("sat", "VBD", "B-VP"),
    )
    inv = extract_templates([sent])
    got = {(" ".join(t.items), t.tag, t.count) for t in inv.templates}
    assert got == {("the cat", "NP", 1), ("sat", "VP", 1)}
    assert inv.sentence_sequences == [(0, 1)]


def test_identical_chunks_merge_counts():
    sent = (AnnotatedToken("the", "DT", "B-NP"), AnnotatedToken("cat", "NN", "I-NP"))
    inv = extract_templates([sent, sent])
    assert len(inv.templates) == 1
    assert inv.templates[0].count == 2


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
    assert sum(t.count for t in inv.templates) == 18


def test_o_tokens_become_single_templates(mini_sentences):
    inv = extract_templates(mini_sentences)
    o_templates = [t for t in inv.templates if t.tag == "O"]
    assert len(o_templates) == 1
    assert o_templates[0].items == (".",)
    assert o_templates[0].count == 3


def test_token_counts_tiny():
    sent = (
        AnnotatedToken("a", "DT", "O"),
        AnnotatedToken("a", "DT", "O"),
        AnnotatedToken("b", "NN", "O"),
    )
    assert token_counts([sent]) == {"a": 2, "b": 1}


def test_token_counts_empty_corpus():
    counts = token_counts([])
    assert counts == {}
    assert FactorPolicy("absolute", 1).kept(counts) == FactorPolicy("relative", 1).kept(counts) == set()


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
    counts = token_counts(mini_sentences)
    assert counts == MINI_COUNTS
    # a relative threshold keeps exactly the words ranked at or above it
    for threshold in range(1, len(MINI_RANKS) + 2):
        kept = {w for w, rank in MINI_RANKS.items() if rank <= threshold}
        assert FactorPolicy("relative", threshold).kept(counts) == kept


def test_desk_counts_match_brute_force(desk_sentences, desk_counts):
    brute = {}
    for s in desk_sentences:
        for t in s:
            brute[t.surface] = brute.get(t.surface, 0) + 1
    assert desk_counts == brute


def test_unseen_words_are_never_kept(desk_counts):
    assert desk_counts["zzz-not-there"] == 0
    for policy in (FactorPolicy("absolute", 1), FactorPolicy("relative", 10**9)):
        assert "zzz-not-there" not in policy.kept(desk_counts)


def test_sentences_reconstruct_from_template_sequences(desk_sentences, desk_inventory):
    for sent, seq in zip(desk_sentences, desk_inventory.sentence_sequences):
        rebuilt = []
        for i in seq:
            rebuilt.extend(desk_inventory.templates[i].items)
        assert rebuilt == [t.surface for t in sent]


def test_counts_sum_to_chunk_occurrences(desk_inventory):
    assert sum(t.count for t in desk_inventory.templates) == sum(
        len(seq) for seq in desk_inventory.sentence_sequences
    )


def test_serialization_deterministic(data_dir):
    a = parse_conll_file(data_dir / "desk.conll")
    b = parse_conll_file(data_dir / "desk.conll")
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
    loaded = parse_inventory_lines("\n".join(lines) + "\n")
    assert len(loaded.templates) == len(lines)
    original = sorted(
        (t.tag, " ".join(t.items), t.count) for t in desk_inventory.templates
    )
    reloaded = sorted((t.tag, " ".join(t.items), t.count) for t in loaded.templates)
    assert original == reloaded


def test_parse_inventory_rejects_bad_lines():
    with pytest.raises(MalformedLine):
        parse_inventory_lines("1\tNP")
    with pytest.raises(MalformedLine):
        parse_inventory_lines("x\tNP\tthe cat")
    # counts below 1, empty items, blank or spaced tags and reserved model
    # symbols only come from a damaged file
    for line in ["0\tNP\tthe cat", "-4\tVP\truns", "3\tNP\t", "2\tPP\tin  the",
                 "1\t\tthe", "2\tN P\tcat", "1\t<unk>\tthe", "1\t</s>\tthe",
                 "2\tNP\tthe <unk>", "2\tNP\t<s> cat"]:
        with pytest.raises(MalformedLine):
            parse_inventory_lines(line + "\n")


def test_parse_inventory_accepts_a_gap_of_a_reserved_pos():
    (t,) = parse_inventory_lines("3\tNP\tthe __<unk>__\n").templates
    assert t.items == ("the", "__<unk>__")


def test_loaded_inventory_keeps_at_most_16_bytes_a_line():
    n = 20_000
    text = "".join("%d\tNP\tw%d the x%d\n" % (n - i, i, i) for i in range(n))
    tracemalloc.start()
    try:
        inv = parse_inventory_lines(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(inv.templates) == n
    assert kept <= 16 * n, kept
    # the load itself holds no object a line either: a list of the lines
    # takes about 80 bytes a line, and one regex match over the whole text
    # with a repeated group several hundred (the engine's repeat stack)
    assert peak <= 16 * n, peak


def test_scan_leaves_lines_deep_in_a_large_text_to_the_line_rule():
    n = 20_000
    lines = ["%d\tNP\tw%d the" % (n - i, i) for i in range(n)]
    lines[15_000] = "+3\tNP\todd 02"  # valid, though not as train writes it
    inv = parse_inventory_lines("\n".join(lines) + "\n")
    t = inv.templates[15_000]
    assert (t.items, t.tag, t.count) == (("odd", "02"), "NP", 3)
    assert inv.templates[15_001].count == n - 15_001
    bad = lines[:18_000] + ["", "", ""] + ["7\tNP\tthe  cat"] + lines[18_000:]
    with pytest.raises(MalformedLine) as exc:
        parse_inventory_lines("\n".join(bad))
    assert exc.value.lineno == 18_004
    assert str(exc.value).startswith("line 18004: empty item")


_SLICED = parse_inventory_lines("".join("%d\tNP\tw%d\n" % (9 - i, i) for i in range(9)))
_bound = st.none() | st.integers(-12, 12)


@given(_bound, _bound, st.none() | st.integers(-4, 4).filter(bool))
def test_loaded_templates_slice_to_a_list(start, stop, step):
    got = _SLICED.templates[start:stop:step]
    want = list(_SLICED.templates)[start:stop:step]
    assert isinstance(got, list)
    assert [(t.items, t.tag, t.count) for t in got] == [(t.items, t.tag, t.count) for t in want]


_count = st.integers(1, 10**6).map(str)
# counts inventory_lines never writes: valid ones int() reads, one longer than
# the load's pattern vouches for, and one past int()'s default digit limit
_odd_count = st.sampled_from(["+2", "02", " 3", "1_0", "1" * 19, "1" * 5000])
_inv_tag = st.sampled_from(["NP", "VP", "O", "__NP__"])
# tags that str.split() breaks at Unicode whitespace: the load's pattern must
# agree with it on what is whitespace
_spaced_tag = st.sampled_from(["N P", "N\u00a0P", "N\x1cP", "N\x85P", "N\u2028P", "N\rP"])
# items may hold characters other than "\n" that str.splitlines() breaks at,
# and whitespace other than " "
_inv_word = st.text(alphabet="ab_<>/\r\x0b\x1c\x85\u00a0\u2028", min_size=1, max_size=4)
_inv_items = st.lists(_inv_word, min_size=1, max_size=3).map(" ".join)


@st.composite
def _inventory_line(draw, count, tag=_inv_tag):
    return "%s\t%s\t%s" % (draw(count), draw(tag), draw(_inv_items))


_bad_line = st.one_of(
    st.sampled_from([
        "2\tNP", "2\tNP\tthe\tcat",  # 2 and 4 fields
        "0\tNP\tthe", "-1\tNP\tthe", "x\tNP\tthe",
        "1\t\tthe", "1\tN P\tthe",  # empty and spaced tag
        "1\tNP\tthe  cat", "1\tNP\tthe ",  # double and trailing space
        "1\t<s>\tthe", "1\t</s>\tthe", "1\t<unk>\tthe",
        "1\tNP\t<s>", "1\tNP\tthe </s>", "1\tNP\t<unk> cat",
        "\r", "\r\r",  # not blank: only "\n" ends a line
    ]),
    _inventory_line(st.sampled_from(["0", "-1", "x", "1.5"])),
    _inventory_line(_count, _spaced_tag),
)
_good_line = st.one_of(
    _inventory_line(_count),
    _inventory_line(_odd_count),
    st.just("1\tNP\t__<unk>__"),
    st.just(""),  # blank
)


@st.composite
def _inventory_text(draw):
    lines = draw(st.lists(_good_line, max_size=8))
    bad = draw(st.none() | _bad_line)
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@given(_inventory_text())
def test_parse_inventory_matches_the_eager_oracle(text):
    try:
        want = parse_inventory(io.StringIO(text))
    except OracleMalformedLine as exc:
        with pytest.raises(MalformedLine) as got:
            parse_inventory_lines(text)
        assert str(got.value) == str(exc)
        return
    inv = parse_inventory_lines(text)
    assert [(t.items, t.tag, t.count, t.pos) for t in list(inv.templates)] == [
        (items, tag, count, ()) for items, tag, count in want
    ]


def test_template_has_slots_and_no_dict():
    assert not hasattr(Template(("the",), "NP"), "__dict__")


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
    assert sum(t.count for t in inv.templates) == len(inv.sentence_sequences[0])
