"""Backend parity, packed-table structure, and backend selection."""

import gc
import io
import math
import random
import shutil
import struct
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import templex.kernels
from templex.corpus import Template
from templex.ga import make_chromosome
from templex.kernels import (
    DEFAULT_BACKEND,
    ModelScorer,
    available_backends,
    make_scorer,
)
from templex.kernels.pykernel import PyScorer, transitions
from templex.kernels.tables import (
    _HEADER,
    MAGIC,
    _blocks,
    _read_block,
    MalformedTables,
    ScorerTables,
    build_tables,
    read_tables,
    write_tables,
)
from templex.ngram import BOS, NGramModel, read_arpa, read_arpa_file, train, write_arpa
from templex.ngram.counts import LOG_FLOOR

from helpers import CHECKOUT, child_env, copy_model, float_bits
from oracles import reference_tables

HAVE_NATIVE = "native" in available_backends()
needs_native = pytest.mark.skipif(not HAVE_NATIVE, reason="compiled kernel not built")


def test_python_backend_always_available():
    assert "python" in available_backends()
    assert DEFAULT_BACKEND == ("native" if HAVE_NATIVE else "python")


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


def prob_map(t):
    """The stored log probabilities as one {key: log10 prob} map."""
    return dict(zip(t.prob_keys, map(t.logprobs.__getitem__, t.prob_index)))


def trans_map(t):
    """The transitions as one {key: context it leads to} map."""
    return dict(zip(t.trans_keys, t.trans_next))


def context_lengths(t):
    """Each context's length: the number of parent steps to the empty
    context.  Every parent has a lower id, so each chain ends."""
    lengths = [0]
    for c in range(1, len(t.parent)):
        assert t.parent[c] < c, c
        lengths.append(lengths[t.parent[c]] + 1)
    return lengths


def test_table_shapes_consistent(sig_lm5):
    t = build_tables(sig_lm5)
    ctx_len = context_lengths(t)
    n = len(ctx_len)
    assert len(t.parent) == n and len(t.backoff) == n
    assert ctx_len[0] == 0 and t.parent[0] == 0 and t.backoff[0] == 0.0
    # parent always strictly shortens a nonempty context
    for c in range(1, n):
        assert ctx_len[t.parent[c]] == ctx_len[c] - 1
    # every trans target is one longer than its source
    base = t.base
    for key, dst in zip(t.trans_keys, t.trans_next):
        assert ctx_len[dst] == ctx_len[key // base] + 1


def test_bos_state_reaches_full_padding(token_lm3):
    # internally trained models materialize the (<s>, <s>) context
    t = build_tables(token_lm3)
    assert context_lengths(t)[t.bos_state] == token_lm3.order - 1
    sc = make_scorer(token_lm3, "python")
    walked = sc.kernel.walk(0, sc.encode([BOS] * (token_lm3.order - 1)))
    assert walked == t.bos_state


def test_bos_state_backs_off_in_single_start_files(data_dir):
    # the third-party trainer pads with one <s>, so (<s>, <s>) is not stored
    # and the boundary state must settle on the longest stored suffix
    m = read_arpa_file(data_dir / "token_ref.arpa")
    t = build_tables(m)
    assert context_lengths(t)[t.bos_state] == 1
    bos_id = t.encode(BOS)
    root_step = trans_map(t)[0 * t.base + bos_id]
    assert t.bos_state == root_step


def context_names(t):
    """Each context id's token ids, read back from the transition map."""
    base = t.base
    ctx_len = context_lengths(t)
    names = {0: ()}
    for key, dst in sorted(zip(t.trans_keys, t.trans_next), key=lambda kv: ctx_len[kv[1]]):
        names[dst] = names[key // base] + (key % base,)
    assert len(names) == len(ctx_len) == len(t.trans_keys) + 1  # one name each
    assert len(set(names.values())) == len(names)
    return names


def by_context(t):
    """Tables keyed by each context's token ids instead of its context id."""
    base = t.base
    names = context_names(t)
    assert list(t.prob_keys) == sorted(set(t.prob_keys))  # strictly ascending
    assert list(t.trans_keys) == sorted(set(t.trans_keys))
    assert len(t.prob_keys) == len(t.prob_index)
    assert len(t.trans_keys) == len(t.trans_next)
    return dict(
        order=t.order,
        base=base,
        token_ids=t.token_ids,
        unk_log10=t.unk_log10,
        eos_id=t.eos_id,
        bos_state=names[t.bos_state],
        ctx_len={names[c]: n for c, n in enumerate(context_lengths(t))},
        parent={names[c]: names[p] for c, p in enumerate(t.parent)},
        backoff={names[c]: w for c, w in enumerate(t.backoff)},
        probs={(names[k // base], k % base): lp for k, lp in prob_map(t).items()},
        trans={(names[k // base], k % base): names[d] for k, d in trans_map(t).items()},
    )


def assert_tables_match_reference(model):
    got, want = by_context(build_tables(model)), by_context(reference_tables(model))
    for name in want:
        assert got[name] == want[name], name


def round_trip(model):
    buf = io.StringIO()
    write_arpa(copy_model(model), buf)
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


def assert_no_transition_leaves_a_full_context(t):
    """``advance`` relies on this: a context of order - 1 tokens is never
    extended, so from one the first transition lookup misses and the walk
    backs off to a context that can take the next token.  The tables file
    relies on one transition leading to each context but the empty one,
    from a context before it."""
    ctx_len = context_lengths(t)
    full = [key for key in t.trans_keys if ctx_len[key // t.base] >= t.order - 1]
    assert full == [], (t.order, full[:5])
    assert sorted(t.trans_next) == list(range(1, len(t.parent)))
    assert all(dst > key // t.base for key, dst in zip(t.trans_keys, t.trans_next))


def test_no_transition_leaves_a_full_context(tmp_path, token_lm3, sig_lm5, desk_token_seqs, data_dir):
    single_start = read_arpa_file(data_dir / "token_ref.arpa")
    for model in (token_lm3, sig_lm5, train(desk_token_seqs, 1), single_start):
        built = build_tables(model)
        assert_no_transition_leaves_a_full_context(built)
        # the loaded tables work out the boundary fields the builder's have
        path = tmp_path / "m.tables"
        write_tables(built, path)
        loaded = read_tables(path)
        assert (loaded.bos_state, loaded.eos_id) == (built.bos_state, built.eos_id), model.order
        assert_no_transition_leaves_a_full_context(loaded)


@settings(max_examples=200, deadline=None)
@given(model=pruned_models())
def test_no_transition_leaves_a_full_context_on_pruned_models(model):
    assert_no_transition_leaves_a_full_context(build_tables(model))


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
        for state in range(len(sc.tables.parent)):
            for tid in query_ids(sc.tables, rng, 6):
                assert sc.kernel.score(state, tid) == sc.kernel.score_step(state, tid)[0], (
                    model.order, state, tid)


@needs_native
def test_score_bit_identical_across_backends(token_lm3, sig_lm5):
    rng = random.Random(4100)
    for model in (token_lm3, sig_lm5):
        py = make_scorer(model, "python")
        nat = make_scorer(model, "native")
        for state in range(len(py.tables.parent)):
            for tid in query_ids(py.tables, rng, 6):
                assert py.kernel.score(state, tid) == nat.kernel.score(state, tid), (
                    model.order, state, tid)
                assert py.kernel.advance(state, tid) == nat.kernel.advance(state, tid), (
                    model.order, state, tid)


def flat_score(t, probs, state, tid):
    """``score`` as a walk over one flat {key: log10 prob} map ``probs``."""
    s, acc = state, 0.0
    while True:
        lp = probs.get(s * t.base + tid)
        if lp is not None:
            lp += acc
            break
        if s == 0:
            lp = acc + t.unk_log10
            break
        acc += t.backoff[s]
        s = t.parent[s]
    return LOG_FLOOR if lp < LOG_FLOOR else lp


@settings(max_examples=300, deadline=None)
@given(model=pruned_models())
def test_row_kernel_matches_a_walk_over_a_flat_map_on_pruned_models(model):
    """Every context with each token it stores, one it does not and the OOV
    id: the same float bits (so the same sign of zero) as the reference."""
    t = build_tables(model)
    probs = prob_map(t)
    kernel, oov = PyScorer(t), t.base - 1
    for c in range(len(t.parent)):
        stored = [k - c * t.base for k in t.prob_keys if k // t.base == c]
        unstored = [tid for tid in range(oov) if tid not in stored][:1]
        for tid in stored + unstored + [oov]:
            got, want = kernel.score(c, tid), flat_score(t, probs, c, tid)
            assert float_bits([got]) == float_bits([want]), (model.order, c, tid)


@settings(max_examples=200, deadline=None)
@given(model=pruned_models(), data=st.data())
def test_a_fresh_scorer_makes_rows_only_on_the_backoff_chains_it_scores(model, data):
    t = build_tables(model)
    probs = prob_map(t)
    kernel = PyScorer(t)
    assert kernel.rows == [None] * len(t.parent)
    query = st.tuples(st.integers(0, len(t.parent) - 1), st.integers(0, t.base - 1))
    reached = set()
    for state, tid in data.draw(st.lists(query, max_size=8)):
        kernel.score(state, tid)
        reached.add(state)
        while state and state * t.base + tid not in probs:
            state = t.parent[state]
            reached.add(state)
    assert {c for c, row in enumerate(kernel.rows) if row is not None} == reached
    for c in reached:
        want = {k - c * t.base: lp for k, lp in probs.items() if k // t.base == c}
        assert kernel.rows[c].keys() == want.keys()
        # the very float objects of logprobs
        assert all(kernel.rows[c][tid] is lp for tid, lp in want.items())
    assert kernel.steps == [None] * len(t.parent)  # scoring makes no transition rows


@settings(max_examples=200, deadline=None)
@given(model=pruned_models(), data=st.data())
def test_a_fresh_scorer_makes_transition_rows_only_for_the_contexts_its_walks_reach(model, data):
    t = build_tables(model)
    trans = trans_map(t)
    kernel = PyScorer(t)
    assert kernel.steps == [None] * len(t.parent)
    query = st.tuples(st.integers(0, len(t.parent) - 1), st.integers(0, t.base - 1))
    reached = set()
    for state, tid in data.draw(st.lists(query, max_size=8)):
        kernel.advance(state, tid)
        reached.add(state)
        while state and state * t.base + tid not in trans:
            state = t.parent[state]
            reached.add(state)
    assert {c for c, row in enumerate(kernel.steps) if row is not None} == reached
    for c in reached:
        assert kernel.steps[c] == {k - c * t.base: d for k, d in trans.items() if k // t.base == c}
        assert kernel.steps[c] == transitions(t, c)
    assert kernel.rows == [None] * len(t.parent)  # advancing makes no log probability rows


def test_ends_match_string_queries(token_lm3, sig_lm5, desk_token_seqs):
    # a chromosome's head and tail, one template per token
    lm1 = train(desk_token_seqs, 1)
    rng = random.Random(4101)
    for model in (token_lm3, lm1):
        sc = model.scorer

        def chromosome(tokens):
            return make_chromosome([Template((w,), "NP") for w in tokens], sc, sig_lm5.scorer)

        words = sorted(model.vocab) + ["oov-x"]
        for _ in range(200):
            left = [rng.choice(words) for _ in range(rng.randrange(1, 5))]
            right = [rng.choice(words) for _ in range(rng.randrange(1, 3))]
            tail = chromosome(left).tail
            head = chromosome(right).head
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


def copy_without_native(tmp_path):
    """A copy of this checkout's ``src/`` with no ``templex.kernels._native``
    in it, built or not, for a child to import."""
    src = tmp_path / "src"
    shutil.copytree(CHECKOUT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "_native*"))
    return src


def test_absent_native_module_selects_python(tmp_path):
    src = copy_without_native(tmp_path)
    prog = "import templex.kernels as k; print(k.DEFAULT_BACKEND, k.__file__, sep='\\n')"
    out = subprocess.run(
        [sys.executable, "-c", prog], env=child_env(src), capture_output=True, text=True, check=True,
    )
    backend, path = out.stdout.splitlines()
    assert backend == "python"
    assert src in Path(path).parents  # the child imported the copy


@pytest.mark.parametrize(
    "source, error",
    [
        ('raise ImportError("undefined symbol")\n', "ImportError: undefined symbol"),
        ("import _no_such_dependency\n", "No module named '_no_such_dependency'"),
        ("x = 1\n", "cannot import name 'NativeScorer'"),
    ],
    ids=["raises", "missing-dependency", "no-scorer"],
)
def test_broken_native_module_is_an_import_error(tmp_path, source, error):
    # only an absent _native means no compiled kernel; a present one that
    # does not import must not fall back to Python in silence
    src = copy_without_native(tmp_path)
    (src / "templex" / "kernels" / "_native.py").write_text(source, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", "import templex.kernels"], env=child_env(src), capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert error in proc.stderr, proc.stderr


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
    format must carry bit for bit (-0.0, -inf, non-ASCII words).  A key
    names a context, so it is below the number of contexts times the base,
    and a transition leads to a context after the one its key names."""
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
    # one transition a context but the empty one, from any context but the last
    trans_keys = sorted(draw(st.sets(st.integers(0, max((n - 1) * base - 1, 0)), min_size=n - 1, max_size=n - 1)))
    # a few fixed values, so that equal numbers (and zeros of both signs)
    # recur within one table, as they do in a trained model
    logprob = st.one_of(st.sampled_from((0.0, -0.0, -1.5, -math.inf)), st.floats(max_value=0.0))
    weight = st.one_of(
        st.sampled_from((0.0, -0.0, 2.5, -math.inf)), st.floats(allow_nan=False, max_value=1e300)
    )
    prob_keys = sorted(draw(st.sets(st.integers(0, n * base - 1), max_size=20)))
    # distinct bit patterns, as the builder and the loaded file hold them
    logprobs = draw(st.lists(logprob, min_size=1 if prob_keys else 0, max_size=6, unique_by=float_bits_of))
    index = st.integers(0, max(len(logprobs) - 1, 0))
    return ScorerTables(
        order=order,
        base=base,
        token_ids=dict(zip(words, range(len(words)))),
        parent=array("q", [0] + [draw(st.integers(0, c - 1)) for c in range(1, n)]),
        backoff=draw(st.lists(weight, min_size=n, max_size=n)),
        prob_keys=array("q", prob_keys),
        prob_index=array("I", [draw(index) for _ in prob_keys]),
        logprobs=logprobs,
        trans_keys=array("q", trans_keys),
        trans_next=array("I", [draw(st.integers(k // base + 1, n - 1)) for k in trans_keys]),
        unk_log10=draw(logprob),
    )


@settings(max_examples=300, deadline=None)
@given(tables=scorer_tables())
def test_tables_file_round_trip(tmp_path_factory, tables):
    path = tmp_path_factory.mktemp("tables") / "m.tables"
    write_tables(tables, path)
    got = read_tables(path)
    # == takes -0.0 for 0.0, so every float is also compared bit for bit
    assert got == tables
    assert list(got.token_ids) == list(tables.token_ids)
    for name, typecode in COLUMNS:
        assert getattr(got, name).typecode == typecode, name
        assert list(getattr(got, name)) == list(getattr(tables, name)), name
    assert float_bits(got.backoff) == float_bits(tables.backoff)
    assert float_bits(got.logprobs) == float_bits(tables.logprobs)
    assert float_bits([got.unk_log10]) == float_bits([tables.unk_log10])
    assert_shared(got)


# the columns that load as the arrays the file holds, with their typecodes
COLUMNS = (
    ("parent", "q"),
    ("prob_keys", "q"),
    ("prob_index", "I"),
    ("trans_keys", "q"),
    ("trans_next", "I"),
)


def float_bits_of(value):
    return float_bits([value])[0]


def assert_shared(tables):
    """``backoff`` holds one float object per distinct bit pattern, and
    ``logprobs`` one distinct bit pattern per object."""
    backoff, logprobs = tables.backoff, tables.logprobs
    assert len({id(v) for v in backoff}) == len(set(float_bits(backoff)))
    assert len({id(v) for v in logprobs}) == len(set(float_bits(logprobs))) == len(logprobs)


def forty_word_tables():
    """The tables train stores of an order-4 model on 40 words."""
    rng = random.Random(7)
    words = ["w%d" % i for i in range(40)]
    model = train([[rng.choice(words) for _ in range(rng.randrange(3, 12))] for _ in range(600)], 4)
    return write_arpa(model, io.StringIO())


def test_loaded_tables_share_equal_numbers(tmp_path):
    """The tables train stores of an order-4 model on 40 words: thousands
    of contexts, ids above the interpreter's small-int cache that recur as
    parents, and far fewer distinct 4-decimal numbers than entries."""
    tables = forty_word_tables()
    path = tmp_path / "m.tables"
    write_tables(tables, path)
    got = read_tables(path)
    assert got == tables
    assert_shared(got)
    assert len(got.logprobs) < len(got.prob_keys) // 2
    assert max(c for c, n in Counter(got.parent).items() if n > 1) > 256


def traced_peak_above_result(fn, *args):
    """(what ``fn(*args)`` returns, the bytes it holds once returned, and
    the highest number of bytes alive during the call above those), as
    tracemalloc counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - before, peak - current


def test_read_tables_holds_at_most_one_block_above_what_it_returns(tmp_path):
    """Each column is read into the array that holds it, and the loader
    builds nothing per entry that it then drops, so the load peaks at most
    one block above the tables it returns (the largest block is the log
    probabilities' keys)."""
    path = tmp_path / "m.tables"
    write_tables(forty_word_tables(), path)
    fields = _HEADER.unpack(path.read_bytes()[: _HEADER.size])
    largest = max(array(typecode).itemsize * n for typecode, n in _blocks(*fields[6:]))
    got, kept, above = traced_peak_above_result(read_tables, path)
    assert got == read_tables(path)
    assert largest >= array("q").itemsize * len(got.prob_keys) > 40_000
    assert above <= largest, (above, kept, largest)


def test_a_block_is_read_with_no_second_copy(tmp_path):
    """The block's bytes go straight into its array: no bytes object of the
    block's size is made beside it."""
    data = array("q", range(100_000))
    stored = array("q", data)
    if sys.byteorder != "little":
        stored.byteswap()
    path = tmp_path / "block"
    path.write_bytes(stored.tobytes())
    with open(path, "rb") as fh:
        block, kept, above = traced_peak_above_result(_read_block, path, fh, "q", len(data))
    assert block == data
    assert kept >= 8 * len(data)
    assert above < 4096, above


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
    """A copy of ``tables`` with ``changes``; its derived fields are worked
    out again."""
    return replace(tables, **changes)


def vocabulary_without_base(b, t):
    """The header says there is no vocabulary (base 1), but 11 bytes of one
    follow it."""
    fields = list(_HEADER.unpack_from(b))
    nvocab = fields[5]
    fields[3], fields[5] = 1, 11
    return _HEADER.pack(*fields) + b"hello\nworld" + b[_HEADER.size + nvocab :]


def no_contexts(b, t):
    """The header declares no contexts, not even the empty one, and the file
    is as long as that would make it if a block could hold -1 trans keys."""
    fields = list(_HEADER.unpack_from(b))
    fields[6] = 0
    size = _HEADER.size + fields[5] + sum(array(tc).itemsize * n for tc, n in _blocks(*fields[6:]))
    return (_HEADER.pack(*fields) + b[_HEADER.size :])[:size]


def overwrite(block, fmt, value, item=0):
    """Damage that overwrites item ``item`` (negative counts from the end)
    of block ``block`` of the layout with ``value`` packed as ``fmt``; a
    value given as a function of the header's fields is computed from them."""

    def damage(b, t):
        fields = _HEADER.unpack_from(b)
        offset = _HEADER.size + fields[5]
        layout = _blocks(*fields[6:])
        for typecode, n in layout[:block]:
            offset += array(typecode).itemsize * n
        typecode, n = layout[block]
        at = offset + array(typecode).itemsize * (item % n)
        packed = struct.pack(fmt, value(fields) if callable(value) else value)
        return b[:at] + packed + b[at + len(packed) :]

    return damage


# blocks of the layout, in file order (see _blocks)
LOGPROBS, BACKOFFS, PARENT, BACKOFF_INDEX, PROBS_KEYS, PROBS_INDEX, TRANS_KEYS, TRANS_NEXT = range(8)


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda b, t: b[:-8], "the header declares other lengths"),
        (lambda b, t: b[: len(b) // 2], "the header declares other lengths"),
        (lambda b, t: b + b"\0", "the header declares other lengths"),
        (lambda b, t: b[:20], "shorter than the header"),
        (lambda b, t: b"x" + b[1:], "not a templex tables file"),
        (lambda b, t: b[: len(MAGIC)] + struct.pack("<I", 99) + b[len(MAGIC) + 4 :], "format version 99"),
        (vocabulary_without_base, "vocabulary does not match its header"),
        (overwrite(PROBS_INDEX, "<I", lambda f: f[8]), "a value index points past its block"),
        (overwrite(PROBS_INDEX, "<I", 2**32 - 1, -1), "a value index points past its block"),
        (overwrite(BACKOFF_INDEX, "<I", lambda f: f[9], -1), "a value index points past its block"),
        (overwrite(PARENT, "<q", -1, -1), "context link"),
        (no_contexts, "the header declares other lengths"),
        (lambda b, t: overwrite(TRANS_KEYS, "<q", t.trans_keys[0], 1)(b, t), "a key is stored twice"),
        (lambda b, t: overwrite(TRANS_KEYS, "<q", t.trans_keys[2])(b, t), "transition keys are out of order"),
        (overwrite(TRANS_KEYS, "<q", lambda f: f[6] * f[3], -1), "transition key names no context"),
        (overwrite(TRANS_NEXT, "<I", lambda f: f[6], -1), "transition does not lead to a later context"),
        (overwrite(TRANS_NEXT, "<I", 0), "transition does not lead to a later context"),
        (lambda b, t: overwrite(PROBS_KEYS, "<q", t.prob_keys[0], 1)(b, t), "a key is stored twice"),
        (lambda b, t: overwrite(PROBS_KEYS, "<q", t.prob_keys[2])(b, t), "log probability keys are out of order"),
        (overwrite(PROBS_KEYS, "<q", lambda f: f[6] * f[3], -1), "log probability key names no context"),
        (overwrite(PROBS_KEYS, "<q", -1), "log probability key names no context"),
        (overwrite(LOGPROBS, "<d", math.nan, -1), "log probability is NaN or above 0"),
        (overwrite(LOGPROBS, "<d", 0.5), "log probability is NaN or above 0"),
        (overwrite(BACKOFFS, "<d", math.inf, -1), "backoff weight is NaN or \\+inf"),
    ],
    ids=[
        "truncated",
        "cut-in-half",
        "extended",
        "header-cut",
        "magic",
        "version",
        "vocabulary-without-base",
        "prob-index-past-block",
        "prob-index-all-ones",
        "backoff-index-past-block",
        "negative-parent",
        "no-contexts",
        "trans-key-twice",
        "trans-keys-out-of-order",
        "trans-key-past-the-last-context",
        "trans-target-past-the-table",
        "trans-target-zero",
        "prob-key-twice",
        "prob-keys-out-of-order",
        "prob-key-past-the-last-context",
        "prob-key-negative",
        "nan-logprob-block",
        "positive-logprob-block",
        "inf-backoff-block",
    ],
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
        (lambda t: {"logprobs": [0.5] + t.logprobs[1:]}, "log probability is NaN or above 0"),
        (lambda t: {"logprobs": [math.nan] + t.logprobs[1:]}, "log probability is NaN or above 0"),
        (lambda t: {"unk_log10": 1.0}, "log probability is NaN or above 0"),
        (lambda t: {"backoff": t.backoff[:-1] + [math.inf]}, "backoff weight is NaN or \\+inf"),
        (lambda t: {"backoff": t.backoff[:-1] + [math.nan]}, "backoff weight is NaN or \\+inf"),
        (lambda t: {"parent": t.parent[:-1] + array("q", [len(t.parent) - 1])}, "context link"),
        (lambda t: {"parent": t.parent[:-1] + array("q", [-1])}, "context link"),
        (lambda t: {"base": t.base + 1}, "vocabulary does not match"),
        (lambda t: {"order": 0}, "vocabulary does not match"),
        # one bad number shared by every entry: the value block holds it once
        (lambda t: {"logprobs": [math.nan], "prob_index": array("I", [0]) * len(t.prob_keys)}, "log probability is NaN or above 0"),
        (lambda t: {"logprobs": [0.5], "prob_index": array("I", [0]) * len(t.prob_keys)}, "log probability is NaN or above 0"),
        (lambda t: {"backoff": [math.inf] * len(t.backoff)}, "backoff weight is NaN or \\+inf"),
    ],
)
def test_read_tables_rejects_values_read_arpa_would_reject(tmp_path, sig_lm5, change, reason):
    path = tmp_path / "m.tables"
    tables = build_tables(sig_lm5)
    write_tables(rewritten(tables, **change(tables)), path)
    with pytest.raises(MalformedTables, match=reason):
        read_tables(path)


@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda t: {"prob_keys": t.prob_keys[::-1], "prob_index": t.prob_index[::-1]}, "keys are out of order"),
        (lambda t: {"prob_keys": t.prob_keys[:-1] + array("q", [len(t.parent) * t.base])}, "names no context"),
    ],
    ids=["reversed", "past-the-last-context"],
)
def test_read_tables_rejects_log_probability_keys_the_builder_cannot_make(tmp_path, sig_lm5, change, reason):
    path = tmp_path / "m.tables"
    write_tables(rewritten(build_tables(sig_lm5), **change(build_tables(sig_lm5))), path)
    with pytest.raises(MalformedTables, match=reason):
        read_tables(path)


def test_write_tables_refuses_a_word_with_a_newline(tmp_path, sig_lm5):
    tables = build_tables(sig_lm5)
    bad = rewritten(tables, token_ids=dict(tables.token_ids, **{"a\nb": tables.base - 1}))
    with pytest.raises(ValueError, match="newline"):
        write_tables(bad, tmp_path / "m.tables")


def last_transition_leads_to(target):
    """A change whose last transition leads to ``target`` of the tables."""
    return lambda t: {"trans_next": t.trans_next[:-1] + array("I", [target(t)])}


@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda t: {"trans_keys": t.trans_keys[::-1], "trans_next": t.trans_next[::-1]}, "transition keys are out of order"),
        (lambda t: {"trans_keys": t.trans_keys[:1] + t.trans_keys[:-1]}, "a key is stored twice"),
        (lambda t: {"trans_keys": array("q", [-1]) + t.trans_keys[1:]}, "transition key names no context"),
        (lambda t: {"trans_keys": t.trans_keys[:-1] + array("q", [len(t.parent) * t.base])}, "transition key names no context"),
        (last_transition_leads_to(lambda t: len(t.parent)), "transition does not lead to a later context"),
        (last_transition_leads_to(lambda t: 0), "transition does not lead to a later context"),
        (last_transition_leads_to(lambda t: t.trans_keys[-1] // t.base), "transition does not lead to a later context"),
        (last_transition_leads_to(lambda t: t.trans_keys[-1] // t.base - 1), "transition does not lead to a later context"),
    ],
    ids=[
        "reversed",
        "key-twice",
        "key-negative",
        "key-past-the-last-context",
        "past-the-table",
        "to-the-empty-context",
        "to-its-source",
        "before-its-source",
    ],
)
def test_read_tables_rejects_transitions_the_builder_cannot_make(tmp_path, sig_lm5, change, reason):
    """The builder makes one transition to each context but the empty one,
    from a context before it, with its keys ascending like the log
    probabilities'; the file stores each target, and tables it could not
    have made are refused when they are read."""
    tables = build_tables(sig_lm5)
    assert tables.trans_keys[-1] // tables.base > 1  # so "before-its-source" names a context
    path = tmp_path / "m.tables"
    write_tables(rewritten(tables, **change(tables)), path)
    with pytest.raises(MalformedTables, match=reason):
        read_tables(path)


@pytest.mark.parametrize(
    "change",
    [
        lambda t: {"trans_keys": t.trans_keys[:-1], "trans_next": t.trans_next[:-1]},
        lambda t: {"trans_keys": t.trans_keys + array("q", [len(t.parent) * t.base]), "trans_next": t.trans_next + array("I", [1])},
        lambda t: {"trans_next": t.trans_next[:-1]},
    ],
    ids=["one-short", "one-more", "a-target-short"],
)
def test_write_tables_refuses_a_transition_count_the_file_cannot_hold(tmp_path, sig_lm5, change):
    """The file holds as many transitions as there are contexts but the
    empty one, each with its key and target, so tables with another number
    are refused rather than written as other tables."""
    tables = build_tables(sig_lm5)
    path = tmp_path / "m.tables"
    with pytest.raises(ValueError, match="one transition to each context but the empty one"):
        write_tables(rewritten(tables, **change(tables)), path)
    assert not path.exists()


def test_read_block_refuses_a_short_read():
    """The header's lengths are checked against the file's size first, so a
    block that ends early means the file changed while it was read."""
    with pytest.raises(MalformedTables, match="ended inside a block"):
        _read_block("m.tables", io.BytesIO(bytes(12)), "q", 2)
