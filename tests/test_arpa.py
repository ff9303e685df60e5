"""ARPA round trips, strictness of the reader, and third-party interop."""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import arpa_seq_logprob, read_arpa_table
from templex.kernels import build_tables
from templex.ngram import (
    MalformedArpa,
    NGramModel,
    read_arpa,
    read_arpa_file,
    train,
    write_arpa,
    write_arpa_file,
)

HAND_BIGRAM = """\
\\data\\
ngram 1=4
ngram 2=2

\\1-grams:
-0.3010\ta\t-0.2000
-0.6021\tb
-0.9031\t<s>\t-0.1000
-1.2041\t</s>

\\2-grams:
-0.1000\ta b
-0.1500\t<s> a

\\end\\
"""


def render(model):
    buf = io.StringIO()
    write_arpa(model, buf)
    return buf.getvalue()


def test_hand_file_parses_exactly():
    m = read_arpa(io.StringIO(HAND_BIGRAM))
    assert m.order == 2
    assert m.vocab == frozenset({"a", "b", "<s>", "</s>"})
    assert m.logprobs[("a",)] == -0.3010
    assert m.logprobs[("a", "b")] == -0.1
    assert m.backoffs == {("a",): -0.2, ("<s>",): -0.1}
    assert m.unk_log10 == -99.0  # no <unk> line


def test_hand_file_backoff_walk():
    m = read_arpa(io.StringIO(HAND_BIGRAM))
    assert m.scorer.logprob(("a",), "b") == pytest.approx(-0.1, abs=1e-12)
    # unseen bigram, context with explicit weight
    assert m.scorer.logprob(("a",), "a") == pytest.approx(-0.2 + -0.3010, abs=1e-12)
    # unseen bigram, context whose weight was omitted (implicit 0)
    assert m.scorer.logprob(("b",), "a") == pytest.approx(-0.3010, abs=1e-12)


def test_reader_accepts_space_separated_fields():
    text = HAND_BIGRAM.replace("\t", " ")
    m = read_arpa(io.StringIO(text))
    assert m.logprobs[("<s>", "a")] == -0.15
    assert m.backoffs[("a",)] == -0.2


def test_unk_line_becomes_oov_score():
    text = HAND_BIGRAM.replace("ngram 1=4", "ngram 1=5").replace(
        "-1.2041\t</s>", "-1.2041\t</s>\n-2.5000\t<unk>"
    )
    m = read_arpa(io.StringIO(text))
    assert m.unk_log10 == -2.5
    assert "<unk>" not in m.vocab
    assert m.scorer.logprob((), "zzz") == pytest.approx(-2.5, abs=1e-12)


def test_round_trip_preserves_values_to_rendering_precision(token_lm3):
    m = read_arpa(io.StringIO(render(token_lm3)))
    assert m.order == token_lm3.order
    assert m.vocab == token_lm3.vocab
    assert set(m.logprobs) == set(token_lm3.logprobs)
    for g, lp in token_lm3.logprobs.items():
        assert m.logprobs[g] == pytest.approx(lp, abs=5.0001e-5)
    for g, bw in token_lm3.backoffs.items():
        assert m.backoffs[g] == pytest.approx(bw, abs=5.0001e-5)


def test_round_trip_model_scores_close(token_lm3):
    m = read_arpa(io.StringIO(render(token_lm3)))
    rng = random.Random(17)
    words = sorted(token_lm3.vocab)
    for _ in range(300):
        ctx = tuple(rng.choice(words) for _ in range(rng.randrange(0, 3)))
        w = rng.choice(words)
        # one probability plus at most order-1 backoff weights, each off by
        # at most half an ulp of the 4-decimal rendering
        assert m.scorer.logprob(ctx, w) == pytest.approx(
            token_lm3.scorer.logprob(ctx, w), abs=3 * 5e-5 + 1e-9
        )


def test_writer_output_is_sorted_and_deterministic(token_lm3):
    first = render(token_lm3)
    assert first == render(token_lm3)
    # insertion order of the dicts must not leak into the bytes
    shuffled = NGramModel(
        token_lm3.order,
        token_lm3.vocab,
        dict(reversed(list(token_lm3.logprobs.items()))),
        dict(reversed(list(token_lm3.backoffs.items()))),
        token_lm3.unk_log10,
    )
    assert render(shuffled) == first
    body = first.splitlines()
    assert body[0] == "\\data\\"
    assert body[-1] == "\\end\\"


def test_declared_counts_match_sections(token_lm3):
    text = render(token_lm3)
    lines = text.splitlines()
    declared = {}
    for ln in lines[1:4]:
        k, n = ln.split()[1].split("=")
        declared[int(k)] = int(n)
    for k in (1, 2, 3):
        start = lines.index("\\%d-grams:" % k) + 1
        count = 0
        while start + count < len(lines) and lines[start + count].strip() and not lines[
            start + count
        ].startswith("\\"):
            count += 1
        assert declared[k] == count


REORDERED_BIGRAM = """\
\\data\\
ngram 1=4
ngram 2=3

\\2-grams:
-0.1000\ta b
-0.1500\t<s> a
-0.2500\tzz a

\\1-grams:
-0.3010\ta\t-0.2000
-0.6021\tb
-0.9031\t<s>\t-0.1000
-1.2041\t</s>
-0.6021\tb

\\end\\
"""


def test_sections_are_counted_as_read():
    # sections in any order; the vocabulary is the 1-gram section's words
    # (not "zz", which only a 2-gram names); a repeated line adds no gram
    base = read_arpa(io.StringIO(HAND_BIGRAM))
    m = read_arpa(io.StringIO(REORDERED_BIGRAM))
    assert m.vocab == base.vocab == frozenset({"a", "b", "<s>", "</s>"})
    assert m.logprobs == {**base.logprobs, ("zz", "a"): -0.25}
    no_bigrams = HAND_BIGRAM.replace("\\2-grams:\n-0.1000\ta b\n-0.1500\t<s> a\n", "")
    with pytest.raises(MalformedArpa, match="declared 2 2-grams, found 0") as exc:
        read_arpa(io.StringIO(no_bigrams))
    assert exc.value.lineno == 12  # the \end\ line


def test_file_round_trip(tmp_path, sig_lm5):
    path = tmp_path / "model.arpa"
    write_arpa_file(sig_lm5, path)
    m = read_arpa_file(path)
    assert m.order == 5
    assert set(m.logprobs) == set(sig_lm5.logprobs)


def missing(text, what, repl=""):
    return text.replace(what, repl)


@pytest.mark.parametrize(
    "mutate, lineno, fragment",
    [
        (lambda t: t.replace("\\data\\", "\\dutu\\"), 1, "expected \\data\\"),
        (lambda t: t.replace("ngram 2=2", "ngram two=2"), 3, "bad count declaration"),
        (lambda t: t.replace("ngram 1=4\nngram 2=2\n", ""), 2, "no ngram counts"),
        (lambda t: t.replace("\\1-grams:", "\\3-grams:"), 5, "was not declared"),
        (lambda t: t.replace("\\1-grams:\n", ""), 5, "outside any n-gram section"),
        (lambda t: t.replace("-0.1000\ta b", "-0.1000\ta b c d"), 12, "expected 2 tokens"),
        (lambda t: t.replace("-0.6021\tb", "minus\tb"), 7, "bad log probability"),
        (lambda t: t.replace("-0.2000", "weight"), 6, "bad backoff weight"),
        (lambda t: t.replace("-0.6021\tb", "500.0\tb"), 7, "log probability '500.0' is not <= 0"),
        (lambda t: t.replace("-0.6021\tb", "nan\tb"), 7, "log probability 'nan' is not <= 0"),
        (lambda t: t.replace("-0.1500\t<s> a", "inf\t<s> a"), 13, "log probability 'inf' is not <= 0"),
        (lambda t: t.replace("-0.2000", "nan"), 6, "backoff weight 'nan' is not < +inf"),
        (lambda t: t.replace("<s>\t-0.1000", "<s>\t+inf"), 8, "backoff weight '+inf' is not < +inf"),
        (lambda t: t.replace("\n\\end\\\n", "\n"), 14, "missing \\end\\"),
        (lambda t: t.replace("ngram 2=2", "ngram 2=3"), 15, "declared 3 2-grams, found 2"),
    ],
)
def test_malformed_inputs_report_line_numbers(mutate, lineno, fragment):
    with pytest.raises(MalformedArpa) as exc:
        read_arpa(io.StringIO(mutate(HAND_BIGRAM)))
    assert exc.value.lineno == lineno
    assert fragment in str(exc.value)


def test_minus_infinity_is_accepted():
    # probability 0 and backoff weight 0 are legal, if odd, ARPA values
    text = HAND_BIGRAM.replace("-0.6021\tb", "-inf\tb").replace("-0.2000", "-inf")
    m = read_arpa(io.StringIO(text))
    assert m.logprobs[("b",)] == m.backoffs[("a",)] == float("-inf")


def test_empty_stream_rejected():
    with pytest.raises(MalformedArpa):
        read_arpa(io.StringIO(""))


def test_reference_arpa_loads(data_dir):
    m = read_arpa_file(data_dir / "token_ref.arpa")
    assert m.order == 3
    # header counts agree with what the independent parser sees
    _, logprobs, backoffs = read_arpa_table(data_dir / "token_ref.arpa")
    assert set(m.logprobs) == set(logprobs)
    assert all(m.logprobs[g] == logprobs[g] for g in logprobs)
    # the trainer emits explicit zero backoffs; ours drops nothing it stored
    assert all(m.backoffs[g] == backoffs[g] for g in backoffs)


def test_reference_scores_reproduce_frozen_values(data_dir):
    order, logprobs, backoffs = read_arpa_table(data_dir / "token_ref.arpa")
    with open(data_dir / "token_ref_scores.tsv", encoding="utf-8") as fh:
        rows = [ln.rstrip("\n").split("\t") for ln in fh]
    assert len(rows) == 50
    for _, sentence, frozen in rows:
        got = arpa_seq_logprob(order, logprobs, backoffs, sentence.split())
        assert got == pytest.approx(float(frozen), abs=5e-10)


def test_production_model_matches_reference_scoring(data_dir):
    m = read_arpa_file(data_dir / "token_ref.arpa")
    with open(data_dir / "token_ref_scores.tsv", encoding="utf-8") as fh:
        rows = [ln.rstrip("\n").split("\t") for ln in fh]
    for _, sentence, frozen in rows:
        got = m.scorer.sequence_logprob(sentence.split(), with_boundaries=True)
        assert got == pytest.approx(float(frozen), abs=1e-9)


def test_writer_returns_the_tables_of_the_text(token_lm3, sig_lm5, desk_token_seqs):
    # the tables of exactly the 4-decimal numbers written, numbered as
    # build_tables numbers the model read back from the text
    lm1 = train(desk_token_seqs, 1)
    with_backoffs = NGramModel(1, lm1.vocab, lm1.logprobs, {g: -0.25 for g in lm1.logprobs}, lm1.unk_log10)
    for model in (token_lm3, sig_lm5, lm1, with_backoffs, read_arpa(io.StringIO(HAND_BIGRAM))):
        buf = io.StringIO()
        tables = write_arpa(model, buf)
        buf.seek(0)
        assert tables == build_tables(read_arpa(buf)), model.order


@settings(max_examples=100, deadline=None)
@given(
    logprobs=st.dictionaries(
        st.lists(st.sampled_from(["<s>", "</s>", "<unk>", "a", "b"]), min_size=1, max_size=3).map(tuple),
        st.floats(-9.0, 0.0),
        min_size=1,
    ),
    weights=st.lists(st.floats(-3.0, 3.0), min_size=1),
)
def test_writer_tables_match_the_read_back_model(logprobs, weights):
    order = max(map(len, logprobs))
    backoffs = {g: w for g, w in zip(sorted(logprobs), weights) if len(g) < order}
    model = NGramModel(order, frozenset(g[0] for g in logprobs if len(g) == 1) - {"<unk>"}, logprobs, backoffs)
    buf = io.StringIO()
    tables = write_arpa(model, buf)
    buf.seek(0)
    assert tables == build_tables(read_arpa(buf))
