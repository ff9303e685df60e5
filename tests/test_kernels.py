"""Backend parity, packed-table structure, and backend selection."""

import gc
import io
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import templex.kernels
from templex.kernels import (
    DEFAULT_BACKEND,
    ModelScorer,
    available_backends,
    make_scorer,
)
from templex.kernels.tables import (
    MAGIC,
    MalformedTables,
    ScorerTables,
    build_tables,
    read_tables,
    write_tables,
)
from templex.ngram import BOS, NGramModel, read_arpa, read_arpa_file, train, write_arpa

from oracles import reference_tables

HAVE_NATIVE = "native" in available_backends()
needs_native = pytest.mark.skipif(not HAVE_NATIVE, reason="compiled kernel not built")

CHECKOUT_SRC = Path(__file__).resolve().parent.parent / "src"


def backend_env(name):
    """The environment for a child that imports this checkout's templex."""
    env = dict(os.environ, TEMPLEX_KERNEL=name)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(CHECKOUT_SRC), env.get("PYTHONPATH")) if p
    )
    return env


def test_python_backend_always_available():
    assert "python" in available_backends()
    assert DEFAULT_BACKEND in available_backends()


def test_unknown_backend_rejected(token_lm3):
    with pytest.raises(ValueError, match="unknown kernel backend"):
        make_scorer(token_lm3, "fortran")


def test_scorer_exposes_chosen_backend(token_lm3):
    assert make_scorer(token_lm3, "python").backend == "python"
    if HAVE_NATIVE:
        assert make_scorer(token_lm3, "native").backend == "native"


@needs_native
def test_backends_bit_identical_on_random_queries(token_lm3):
    py = make_scorer(token_lm3, "python")
    nat = make_scorer(token_lm3, "native")
    rng = random.Random(4096)
    words = sorted(token_lm3.vocab) + ["oov-x"]
    for _ in range(2000):
        ctx = tuple(rng.choice(words) for _ in range(rng.randrange(0, 4)))
        w = rng.choice(words)
        assert py.logprob(ctx, w) == nat.logprob(ctx, w), (ctx, w)


@needs_native
def test_backends_bit_identical_on_sequences(sig_lm5):
    py = make_scorer(sig_lm5, "python")
    nat = make_scorer(sig_lm5, "native")
    rng = random.Random(4097)
    words = sorted(sig_lm5.vocab)
    for _ in range(300):
        toks = [rng.choice(words) for _ in range(rng.randrange(1, 12))]
        for bounded in (False, True):
            assert py.sequence_logprob(toks, bounded) == nat.sequence_logprob(
                toks, bounded
            )


def test_oov_tokens_share_the_sentinel_id(token_lm3):
    t = build_tables(token_lm3)
    sentinel = t.base - 1
    assert t.encode("never-seen-a") == sentinel
    assert t.encode("never-seen-b") == sentinel
    assert t.encode("<unk>") == sentinel
    assert sorted(t.token_ids.values()) == list(range(len(token_lm3.vocab)))
    assert t.encode_all(["never-seen-a", sorted(token_lm3.vocab)[0]]) == [sentinel, 0]


def test_token_ids_follow_sorted_vocab(token_lm3):
    t = build_tables(token_lm3)
    for i, w in enumerate(sorted(token_lm3.vocab)):
        assert t.token_ids[w] == i


def test_table_shapes_consistent(sig_lm5):
    t = build_tables(sig_lm5)
    n = len(t.ctx_len)
    assert len(t.parent) == n and len(t.backoff) == n
    assert t.ctx_len[0] == 0 and t.parent[0] == 0 and t.backoff[0] == 0.0
    # parent always strictly shortens a nonempty context
    for c in range(1, n):
        assert t.ctx_len[t.parent[c]] == t.ctx_len[c] - 1
    # every trans target is one longer than its source
    base = t.base
    for key, dst in t.trans.items():
        assert t.ctx_len[dst] == t.ctx_len[key // base] + 1


def test_bos_state_reaches_full_padding(token_lm3):
    # internally trained models materialize the (<s>, <s>) context
    t = build_tables(token_lm3)
    assert t.ctx_len[t.bos_state] == token_lm3.order - 1
    sc = make_scorer(token_lm3, "python")
    walked = sc.kernel.walk(0, sc.encode([BOS] * (token_lm3.order - 1)))
    assert walked == t.bos_state


def test_bos_state_backs_off_in_single_start_files(data_dir):
    # the third-party trainer pads with one <s>, so (<s>, <s>) is not stored
    # and the boundary state must settle on the longest stored suffix
    m = read_arpa_file(data_dir / "token_ref.arpa")
    t = build_tables(m)
    assert t.ctx_len[t.bos_state] == 1
    bos_id = t.encode(BOS)
    root_step = t.trans[0 * t.base + bos_id]
    assert t.bos_state == root_step


def context_names(t):
    """Each context id's token ids, read back from the transition map."""
    base = t.base
    names = {0: ()}
    for key, dst in sorted(t.trans.items(), key=lambda kv: t.ctx_len[kv[1]]):
        names[dst] = names[key // base] + (key % base,)
    assert len(names) == len(t.ctx_len) == len(t.trans) + 1  # one name each
    assert len(set(names.values())) == len(names)
    return names


def by_context(t):
    """Tables keyed by each context's token ids instead of its context id."""
    base = t.base
    names = context_names(t)
    return dict(
        order=t.order,
        base=base,
        token_ids=t.token_ids,
        unk_log10=t.unk_log10,
        eos_id=t.eos_id,
        bos_state=names[t.bos_state],
        ctx_len={names[c]: n for c, n in enumerate(t.ctx_len)},
        parent={names[c]: names[p] for c, p in enumerate(t.parent)},
        backoff={names[c]: w for c, w in enumerate(t.backoff)},
        probs={(names[k // base], k % base): lp for k, lp in t.probs.items()},
        trans={(names[k // base], k % base): names[d] for k, d in t.trans.items()},
    )


def assert_tables_match_reference(model):
    got, want = by_context(build_tables(model)), by_context(reference_tables(model))
    for name in want:
        assert got[name] == want[name], name


def round_trip(model):
    buf = io.StringIO()
    write_arpa(model, buf)
    buf.seek(0)
    return read_arpa(buf)


def test_tables_match_the_reference_on_trained_models(token_lm3, sig_lm5):
    for model in (token_lm3, sig_lm5, round_trip(token_lm3)):
        assert_tables_match_reference(model)


def test_tables_match_the_reference_on_a_single_start_file(data_dir):
    assert_tables_match_reference(read_arpa_file(data_dir / "token_ref.arpa"))


WORDS = ["<s>", "</s>", "<unk>", "a", "b", "c"]


@st.composite
def pruned_models(draw):
    """Models with grams whose prefixes and suffixes are missing, backoff
    weights on grams with no probability (top-order ones included) and
    words outside the vocabulary at every order."""
    order = draw(st.integers(1, 4))
    vocab = draw(st.frozensets(st.sampled_from(WORDS[:2] + WORDS[3:]), min_size=1))
    gram = st.lists(st.sampled_from(WORDS + ["oov"]), min_size=1, max_size=order).map(tuple)
    value = st.floats(-6.0, 0.0)
    return NGramModel(
        order,
        vocab,
        draw(st.dictionaries(gram, value, max_size=30)),
        draw(st.dictionaries(gram, st.floats(-3.0, 3.0), max_size=15)),
        draw(value),
    )


@settings(max_examples=300, deadline=None)
@given(model=pruned_models())
def test_tables_match_the_reference_on_pruned_models(model):
    assert_tables_match_reference(model)


def test_tables_are_deterministic(token_lm3, sig_lm5):
    for model in (token_lm3, sig_lm5):
        assert build_tables(model) == build_tables(model)


def test_make_scorer_builds_through_the_package_hook(token_lm3, monkeypatch):
    # perfbench counts contexts by wrapping templex.kernels.build_tables
    seen = []

    def spy(model):
        seen.append(model)
        return build_tables(model)

    monkeypatch.setattr(templex.kernels, "build_tables", spy)
    make_scorer(token_lm3, "python")
    assert seen == [token_lm3]


def test_score_step_advances_like_walk(token_lm3):
    sc = make_scorer(token_lm3, "python")
    rng = random.Random(4098)
    words = sorted(token_lm3.vocab)
    for _ in range(100):
        toks = [rng.choice(words) for _ in range(rng.randrange(1, 6))]
        ids = sc.encode(toks)
        state = 0
        for tid in ids:
            _, state = sc.kernel.score_step(state, tid)
        assert state == sc.kernel.walk(0, ids)


def assert_walk_reaches_the_longest_stored_suffix(model, histories, backend="python"):
    """The state after each history is the longest suffix of its last
    order - 1 ids that the reference tables store as a context."""
    stored = set(context_names(reference_tables(model)).values())
    sc = make_scorer(model, backend)
    names = context_names(sc.tables)
    for ids in histories:
        window = tuple(ids[max(len(ids) - (model.order - 1), 0) :])
        want = next(window[i:] for i in range(len(window) + 1) if window[i:] in stored)
        assert names[sc.kernel.walk(0, ids)] == want, (model.order, ids)


@pytest.mark.parametrize("backend", available_backends())
def test_walk_reaches_the_longest_stored_suffix(token_lm3, sig_lm5, data_dir, backend):
    rng = random.Random(4097)
    models = (token_lm3, sig_lm5, read_arpa_file(data_dir / "token_ref.arpa"))
    for model in models:
        base = len(model.vocab) + 1  # ids 0..V, the OOV sentinel included
        histories = [
            [rng.randrange(base) for _ in range(rng.randrange(8))] for _ in range(300)
        ]
        assert_walk_reaches_the_longest_stored_suffix(model, histories, backend)


@settings(max_examples=200, deadline=None)
@given(model=pruned_models(), data=st.data())
def test_walk_reaches_the_longest_stored_suffix_on_pruned_models(model, data):
    ids = st.integers(0, len(model.vocab))  # the OOV sentinel included
    histories = data.draw(st.lists(st.lists(ids, max_size=6), min_size=1, max_size=10))
    assert_walk_reaches_the_longest_stored_suffix(model, histories)


def query_ids(tables, rng, n):
    """n random token ids plus the OOV sentinel."""
    return [tables.base - 1] + [rng.randrange(tables.base - 1) for _ in range(n)]


@pytest.mark.parametrize("backend", available_backends())
def test_score_is_score_step_probability(token_lm3, sig_lm5, backend):
    rng = random.Random(4099)
    for model in (token_lm3, sig_lm5):
        sc = make_scorer(model, backend)
        for state in range(len(sc.tables.ctx_len)):
            for tid in query_ids(sc.tables, rng, 6):
                assert sc.kernel.score(state, tid) == sc.kernel.score_step(state, tid)[0], (
                    model.order, state, tid)


@needs_native
def test_score_bit_identical_across_backends(token_lm3, sig_lm5):
    rng = random.Random(4100)
    for model in (token_lm3, sig_lm5):
        py = make_scorer(model, "python")
        nat = make_scorer(model, "native")
        for state in range(len(py.tables.ctx_len)):
            for tid in query_ids(py.tables, rng, 6):
                assert py.kernel.score(state, tid) == nat.kernel.score(state, tid), (
                    model.order, state, tid)
                assert py.kernel.advance(state, tid) == nat.kernel.advance(state, tid), (
                    model.order, state, tid)


def test_ends_match_string_queries(token_lm3, desk_token_seqs):
    lm1 = train(desk_token_seqs, 1)
    rng = random.Random(4101)
    for model in (token_lm3, lm1):
        sc = model.scorer
        words = sorted(model.vocab) + ["oov-x"]
        for _ in range(200):
            left = [rng.choice(words) for _ in range(rng.randrange(1, 5))]
            right = [rng.choice(words) for _ in range(rng.randrange(1, 3))]
            _, tail = sc.ends(left)
            head, _ = sc.ends(right)
            assert head == sc.tables.encode(right[0])
            ctx = left[-(model.order - 1) :] if model.order > 1 else ()
            assert sc.kernel.score(tail, head) == sc.logprob(ctx, right[0])
            if model.order == 1:
                assert tail == 0  # the root: a unigram model keeps no context


def test_per_token_scores_sum_to_sequence(token_lm3):
    sc = make_scorer(token_lm3, "python")
    toks = sorted(token_lm3.vocab)[:6]
    ids = sc.encode(toks)
    state, total = 0, 0.0
    for tid in ids:
        lp, state = sc.kernel.score_step(state, tid)
        total += lp
    assert total == pytest.approx(sc.sequence_logprob(toks, False), abs=1e-12)


def test_env_var_forces_backend(tmp_path):
    prog = (
        "import templex.kernels as k\n"
        "print(k.DEFAULT_BACKEND)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", prog],
        env=backend_env("python"), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "python"


@needs_native
def test_env_var_native_selected(tmp_path):
    prog = "import templex.kernels as k; print(k.DEFAULT_BACKEND)"
    out = subprocess.run(
        [sys.executable, "-c", prog],
        env=backend_env("native"), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "native"


def test_model_scorer_respects_explicit_backend_without_cache_clobber(token_lm3):
    cached = token_lm3.scorer
    explicit = make_scorer(token_lm3, "python")
    assert isinstance(explicit, ModelScorer) and explicit.backend == "python"
    assert token_lm3.scorer is cached  # explicit request did not replace the cache


def test_build_tables_leaves_no_cyclic_garbage(token_lm3, sig_lm5):
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for model in (token_lm3, sig_lm5):
            build_tables(model)
            assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


# ------------------------------------------------------------ tables files


@st.composite
def scorer_tables(draw):
    """Tables that pass read_tables' checks, with every extreme value the
    format must carry bit for bit (-0.0, -inf, 64-bit keys, non-ASCII words)."""
    order = draw(st.integers(1, 5))
    words = draw(
        st.lists(
            st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n"), max_size=4),
            unique=True,
            max_size=8,
        )
    )
    base = len(words) + 1
    n = draw(st.integers(1, 10))
    key = st.integers(-(2**63), 2**63 - 1)
    logprob = st.floats(max_value=0.0)
    return ScorerTables(
        order=order,
        base=base,
        token_ids=dict(zip(words, range(len(words)))),
        ctx_len=[0] + draw(st.lists(st.integers(0, 2**40), min_size=n - 1, max_size=n - 1)),
        parent=[0] + [draw(st.integers(0, c - 1)) for c in range(1, n)],
        backoff=draw(st.lists(st.floats(allow_nan=False, max_value=1e300), min_size=n, max_size=n)),
        probs=draw(st.dictionaries(key, logprob, max_size=20)),
        trans=draw(st.dictionaries(key, st.integers(1, n - 1), max_size=20)) if n > 1 else {},
        unk_log10=draw(logprob),
        bos_state=draw(st.integers(0, n - 1)),
        eos_id=draw(st.integers(0, base - 1)),
    )


def float_bits(values):
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=300, deadline=None)
@given(tables=scorer_tables())
def test_tables_file_round_trip(tmp_path_factory, tables):
    path = tmp_path_factory.mktemp("tables") / "m.tables"
    write_tables(tables, path)
    got = read_tables(path)
    assert got == tables
    assert list(got.token_ids) == list(tables.token_ids)
    assert float_bits(got.backoff) == float_bits(tables.backoff)
    assert float_bits(got.probs.values()) == float_bits(tables.probs.values())
    assert float_bits([got.unk_log10]) == float_bits([tables.unk_log10])


def test_scorer_on_loaded_tables_matches_the_model(tmp_path, token_lm3, sig_lm5):
    rng = random.Random(4099)
    for model in (token_lm3, sig_lm5):
        path = tmp_path / "m.tables"
        write_tables(build_tables(model), path)
        loaded = make_scorer(read_tables(path), "python")
        words = sorted(model.vocab) + ["oov-x"]
        for _ in range(300):
            toks = [rng.choice(words) for _ in range(rng.randrange(1, 8))]
            assert loaded.logprob(toks[:-1], toks[-1]) == model.scorer.logprob(toks[:-1], toks[-1])
            assert loaded.sequence_logprob(toks, True) == model.scorer.sequence_logprob(toks, True)


def rewritten(tables, **changes):
    return ScorerTables(**dict(vars(tables), **changes))


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda b, t: b[:-8], "the header declares other lengths"),
        (lambda b, t: b + b"\0", "the header declares other lengths"),
        (lambda b, t: b[:20], "shorter than the header"),
        (lambda b, t: b"x" + b[1:], "not a templex tables file"),
        (lambda b, t: b[: len(MAGIC)] + struct.pack("<I", 99) + b[len(MAGIC) + 4 :], "format version 99"),
    ],
    ids=["truncated", "extended", "header-cut", "magic", "version"],
)
def test_read_tables_rejects_damaged_bytes(tmp_path, sig_lm5, damage, reason):
    path = tmp_path / "m.tables"
    tables = build_tables(sig_lm5)
    write_tables(tables, path)
    path.write_bytes(damage(path.read_bytes(), tables))
    with pytest.raises(MalformedTables, match=reason) as exc:
        read_tables(path)
    assert str(exc.value).startswith(str(path))


@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda t: {"probs": t.probs | {0: 0.5}}, "log probability is NaN or above 0"),
        (lambda t: {"probs": t.probs | {0: math.nan}}, "log probability is NaN or above 0"),
        (lambda t: {"unk_log10": 1.0}, "log probability is NaN or above 0"),
        (lambda t: {"backoff": t.backoff[:-1] + [math.inf]}, "backoff weight is NaN or \\+inf"),
        (lambda t: {"backoff": t.backoff[:-1] + [math.nan]}, "backoff weight is NaN or \\+inf"),
        (lambda t: {"parent": t.parent[:-1] + [len(t.parent) - 1]}, "context link"),
        (lambda t: {"parent": t.parent[:-1] + [-1]}, "context link"),
        (lambda t: {"trans": t.trans | {0: len(t.ctx_len)}}, "context link"),
        (lambda t: {"bos_state": len(t.ctx_len)}, "context link"),
        (lambda t: {"eos_id": t.base}, "context link"),
        (lambda t: {"base": t.base + 1}, "vocabulary does not match"),
        (lambda t: {"order": 0}, "vocabulary does not match"),
    ],
)
def test_read_tables_rejects_values_read_arpa_would_reject(tmp_path, sig_lm5, change, reason):
    path = tmp_path / "m.tables"
    tables = build_tables(sig_lm5)
    write_tables(rewritten(tables, **change(tables)), path)
    with pytest.raises(MalformedTables, match=reason):
        read_tables(path)


def test_write_tables_refuses_a_word_with_a_newline(tmp_path, sig_lm5):
    tables = build_tables(sig_lm5)
    bad = rewritten(tables, token_ids=dict(tables.token_ids, **{"a\nb": tables.base - 1}))
    with pytest.raises(ValueError, match="newline"):
        write_tables(bad, tmp_path / "m.tables")
