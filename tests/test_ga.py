"""Evolution operators and the generation loop, including RNG replay."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from templex.corpus import Template, extract_templates
from templex.ga import (
    Chromosome,
    EmptyInventory,
    GAConfig,
    PAIR_CAP_FACTOR,
    STATS_HEADER,
    Summary,
    _extend,
    compose,
    crossover,
    evolve_generation,
    fitness,
    init_population,
    junction_probability,
    make_chromosome,
    mutate,
    population_lines,
    run,
    single,
    stats_csv_lines,
    summarize,
    tournament_round,
)
from templex.ngram import NGramModel, train


def lex_template(words, tag):
    return Template(tuple(words), tag)


def default_cfg(**kw):
    base = dict(
        target_length=5,
        population_size=30,
        tournament_size=5,
        nbest=5,
        mutation_p=0.05,
        generations=3,
        rng_seed=0,
    )
    base.update(kw)
    return GAConfig(**base)


# ---------------------------------------------------------------- chromosomes


def test_make_chromosome_concatenates_surfaces():
    a = lex_template(["in", "the"], "PP")
    b = lex_template(["box"], "NP")
    c = make_chromosome([a, b])
    assert c.surface == ("in", "the", "box")
    assert c.signature == ("PP", "NP")
    assert len(c) == 2
    assert c.fitness is None


def test_single_wraps_one_template():
    t = lex_template(["quickly"], "ADVP")
    c = single(t)
    assert c.templates == (t,)
    assert c.surface == ("quickly",)
    assert c.signature == ("ADVP",)


def test_chromosome_identity_ignores_fitness():
    t = lex_template(["x"], "NP")
    a, b = single(t), single(t)
    a.fitness = 0.25
    a.ends = (None, 0, 0)  # nor does the junction gate's cached state
    a.summary = Summary(None, (), (), 0.0, 0.0, 0, 0)  # nor the fitness walk's
    assert a == b
    assert "ends" not in repr(a) and "summary" not in repr(a)


# ------------------------------------------------------------------ crossover


def test_crossover_ground_truth():
    left = make_chromosome([lex_template(["in", "the", "NN"], "PP")])
    right = make_chromosome([lex_template(["VBZ", "a", "NN"], "VP")])
    child = crossover(left, right)
    assert " ".join(child.surface) == "in the NN VBZ a NN"
    assert child.signature == ("PP", "VP")
    assert child.templates == left.templates + right.templates
    assert child.fitness is None


def test_crossover_leaves_parents_untouched():
    left = make_chromosome([lex_template(["a"], "NP")])
    right = make_chromosome([lex_template(["b"], "VP")])
    before = (left.templates, left.surface, right.templates, right.surface)
    crossover(left, right)
    assert (left.templates, left.surface, right.templates, right.surface) == before


def test_crossover_is_associative_on_surfaces():
    ts = [lex_template([w], "NP") for w in ("u", "v", "w")]
    a, b, c = map(single, ts)
    left_first = crossover(crossover(a, b), c)
    right_first = crossover(a, crossover(b, c))
    assert left_first.surface == right_first.surface == ("u", "v", "w")
    assert left_first.templates == right_first.templates


# ------------------------------------------------- carried state composition


@pytest.fixture(scope="session")
def sig_models(desk_sig_seqs, sig_lm5):
    """Signature models of order 1, 2 and 5, plus an order-1 model whose
    unigrams carry backoff weights, which no query may add."""
    lm1 = train(desk_sig_seqs, 1)
    with_backoffs = NGramModel(
        1, lm1.vocab, lm1.logprobs, {g: -0.25 * len(g[0]) for g in lm1.logprobs}, lm1.unk_log10
    )
    return (lm1, train(desk_sig_seqs, 2), sig_lm5, with_backoffs)


@pytest.fixture(scope="session")
def token_models(desk_token_seqs, token_lm3):
    return (train(desk_token_seqs, 1), train(desk_token_seqs, 2), token_lm3)


# "QX" and "never-seen" are out of vocabulary; lists start at one item, so
# parents shorter than order - 1 are common
tag_lists = st.lists(st.sampled_from(["NP", "VP", "PP", "ADVP", "O", "QX"]), min_size=1, max_size=7)
word_lists = st.lists(
    st.lists(st.sampled_from([".", "the", "a", "said", "NN", "never-seen"]), min_size=1, max_size=3),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(a=tag_lists, b=tag_lists, which=st.integers(0, 3))
def test_composed_summary_equals_summary_of_the_concatenation(sig_models, a, b, which):
    scorer = sig_models[which].scorer
    got = compose(summarize(scorer, a), summarize(scorer, b))
    want = summarize(scorer, a + b)
    for name in Summary._fields:
        assert getattr(got, name) == getattr(want, name), name


@settings(max_examples=200, deadline=None)
@given(items=tag_lists, cut=st.integers(0, 7), which=st.integers(0, 3))
def test_extension_is_one_rule(sig_models, items, cut, which):
    # the open and closed walks meet after order - 1 items, and extending by
    # ids one at a time, or in two parts, equals extending by all at once
    scorer = sig_models[which].scorer
    ids = scorer.encode(items)
    empty = summarize(scorer, [])
    whole = _extend(empty, ids)
    assert _extend(_extend(empty, ids[:cut]), ids[cut:]) == whole
    s = empty
    for n in range(len(ids) + 1):
        if n >= scorer.tables.order - 1:
            assert s.closed_state == s.open_state, n
        if n < len(ids):
            s = _extend(s, ids[n : n + 1])
    assert s == whole


@settings(max_examples=200, deadline=None)
@given(items=tag_lists, which=st.integers(0, 3))
def test_summary_totals_equal_the_kernel_walk(sig_models, items, which):
    scorer = sig_models[which].scorer
    s = summarize(scorer, items)
    ids = scorer.encode(items)
    assert s.head_ids == tuple(ids[: scorer.tables.order - 1])
    assert s.open_total == scorer.kernel.sequence_logprob_ids(ids, False)
    closed = s.closed_total + scorer.kernel.score(s.closed_state, scorer.tables.eos_id)
    assert closed == scorer.kernel.sequence_logprob_ids(ids, True)


@settings(max_examples=300, deadline=None)
@given(a=word_lists, b=word_lists, which=st.integers(0, 2))
def test_crossover_carries_the_childs_ends(token_models, a, b, which):
    lm = token_models[which]
    left = make_chromosome([lex_template(w, "NP") for w in a])
    right = make_chromosome([lex_template(w, "VP") for w in b])
    junction_probability(lm.scorer, left, right)  # fills both parents' ends
    child = crossover(left, right)
    if len(right.surface) < lm.order - 1:
        assert child.ends is None
    else:
        assert child.ends == (lm.scorer,) + lm.scorer.ends(child.surface)


@settings(max_examples=100, deadline=None)
@given(a=word_lists, b=word_lists)
def test_crossover_composes_the_parents_summaries(sig_lm5, a, b):
    cfg = default_cfg()
    left = make_chromosome([lex_template(w, t) for w, t in zip(a, ("NP", "QX", "VP", "O"))])
    right = make_chromosome([lex_template(w, t) for w, t in zip(b, ("PP", "NP", "O", "VP"))])
    fitness(left, sig_lm5.scorer, cfg)
    fitness(right, sig_lm5.scorer, cfg)
    child = crossover(left, right)
    assert child.summary == summarize(sig_lm5.scorer, child.signature)
    assert fitness(child, sig_lm5.scorer, cfg) == fitness(make_chromosome(child.templates), sig_lm5.scorer, cfg)


def test_crossover_without_carried_state_composes_nothing(sig_lm5):
    left = make_chromosome([lex_template(["a"], "NP")])
    right = make_chromosome([lex_template(["b", "c"], "VP")])
    fitness(left, sig_lm5.scorer, default_cfg())  # only one parent has a summary
    child = crossover(left, right)
    assert child.summary is None and child.ends is None


# ----------------------------------------------------------------- junctions


def test_junction_uses_last_context_window(token_lm3, desk_factored_inventory):
    ts = desk_factored_inventory.templates
    left = make_chromosome(ts[:3])
    right = single(ts[4])
    expected = 10 ** token_lm3.scorer.logprob(left.surface[-2:], right.surface[0])
    assert junction_probability(token_lm3.scorer, left, right) == pytest.approx(
        expected, rel=1e-12
    )


def test_junction_with_short_left_side(token_lm3):
    left = make_chromosome([lex_template(["solo"], "NP")])
    right = make_chromosome([lex_template(["next"], "VP")])
    expected = 10 ** token_lm3.scorer.logprob(("solo",), "next")
    assert junction_probability(token_lm3.scorer, left, right) == pytest.approx(
        expected, rel=1e-12
    )


def test_junction_under_unigram_model(desk_token_seqs):
    lm1 = train(desk_token_seqs, 1)
    left = make_chromosome([lex_template(["whatever", "context"], "NP")])
    right = make_chromosome([lex_template(["x"], "VP")])
    assert junction_probability(lm1.scorer, left, right) == pytest.approx(
        10 ** lm1.scorer.logprob((), "x"), rel=1e-12
    )


def test_top_order_backoffs_leave_the_state_empty():
    # an ARPA file may give an order-1 model's unigrams backoff weights;
    # they back off from no context, so no query adds them
    lm = NGramModel(1, frozenset("ab"), {("a",): -0.5, ("b",): -0.7}, {("a",): -0.3})
    scorer = lm.scorer
    assert scorer.sequence_logprob(["a", "b"]) == scorer.logprob([], "a") + scorer.logprob(["a"], "b")
    assert scorer.sequence_logprob(["a", "b"]) == -0.5 + -0.7
    left = make_chromosome([lex_template(["a"], "NP")])
    right = make_chromosome([lex_template(["b"], "VP")])
    assert junction_probability(lm.scorer, left, right) == 10.0 ** scorer.logprob(["a"], "b")


def random_chromosomes(inventory, rng, n):
    """Chromosomes of 1-4 templates, half of them drawn from the 1-token
    templates so that order-3 tails often span two or more templates."""
    ts = inventory.templates
    ones = [t for t in ts if len(t.items) == 1]
    chroms = []
    for _ in range(n):
        picks = [
            rng.choice(ones) if rng.random() < 0.5 else rng.choice(ts)
            for _ in range(rng.randrange(1, 5))
        ]
        chroms.append(make_chromosome(picks))
    chroms.append(make_chromosome([lex_template(["never-seen", "unseen-too"], "NP")]))
    return chroms


def string_junction(lm, left, right):
    ctx = left.surface[-(lm.order - 1) :] if lm.order > 1 else ()
    return 10 ** lm.scorer.logprob(ctx, right.surface[0])


def test_junction_equals_string_query_exactly(
    token_lm3, desk_token_seqs, desk_factored_inventory
):
    lm1 = train(desk_token_seqs, 1)
    chroms = random_chromosomes(desk_factored_inventory, random.Random(34), 40)
    # some tails cross a template boundary
    assert any(len(c.templates[-1].items) == 1 < len(c.surface) for c in chroms)
    # alternating models on the same chromosomes refills the cached ends
    for lm in (token_lm3, lm1, token_lm3, lm1):
        for left in chroms:
            for right in chroms:
                assert junction_probability(lm.scorer, left, right) == string_junction(
                    lm, left, right
                ), (lm.order, left.surface, right.surface)
        assert all(c.ends[0] is lm.scorer for c in chroms)


# ------------------------------------------------------------------- mutation


def test_mutation_never_fires_at_zero(desk_factored_inventory):
    rng = random.Random(3)
    cfg = default_cfg(mutation_p=0.0)
    c = make_chromosome(desk_factored_inventory.templates[:2])
    for _ in range(200):
        assert mutate(c, desk_factored_inventory, cfg, rng) is c


def test_mutation_always_fires_at_one(desk_factored_inventory):
    rng = random.Random(4)
    cfg = default_cfg(mutation_p=1.0)
    c = make_chromosome(desk_factored_inventory.templates[:2])
    for _ in range(200):
        m = mutate(c, desk_factored_inventory, cfg, rng)
        assert len(m) == 1
        assert m.templates[0] in desk_factored_inventory.templates


def test_mutation_replays_under_a_seed(desk_factored_inventory):
    cfg = default_cfg(mutation_p=0.4)
    c = make_chromosome(desk_factored_inventory.templates[:2])

    def trail(seed):
        rng = random.Random(seed)
        return [mutate(c, desk_factored_inventory, cfg, rng).surface for _ in range(500)]

    assert trail(11) == trail(11)
    assert trail(11) != trail(12)


def test_mutation_consumes_documented_draws(desk_factored_inventory):
    # one random() when it misses; one random() plus one randrange() when it hits
    cfg = default_cfg(mutation_p=0.5)
    c = make_chromosome(desk_factored_inventory.templates[:2])
    rng = random.Random(77)
    shadow = random.Random(77)
    for _ in range(300):
        got = mutate(c, desk_factored_inventory, cfg, rng)
        if shadow.random() < cfg.mutation_p:
            want = desk_factored_inventory.templates[
                shadow.randrange(len(desk_factored_inventory.templates))
            ]
            assert got.templates == (want,)
        else:
            assert got is c
    assert rng.getstate() == shadow.getstate()


# -------------------------------------------------------------------- fitness


def test_fitness_formula_hand_applied(sig_lm5, desk_factored_inventory):
    cfg = default_cfg(target_length=5)
    for k in (1, 2, 5, 9):
        c = make_chromosome(desk_factored_inventory.templates[:k])
        nl_partial = -sig_lm5.scorer.sequence_logprob(c.signature, False)
        nl_total = -sig_lm5.scorer.sequence_logprob(c.signature, True)
        gap = max(1, abs(cfg.target_length - k))
        expected = 10.0 ** -max(nl_partial / k, nl_total / ((k + 2) * gap))
        assert fitness(c, sig_lm5.scorer, cfg) == pytest.approx(expected, abs=1e-15)


def test_fitness_matches_independent_scorer(sig_lm5, sig_oracle, desk_factored_inventory):
    cfg = default_cfg(target_length=4)
    rng = random.Random(21)
    ts = desk_factored_inventory.templates
    for _ in range(40):
        c = make_chromosome([ts[rng.randrange(len(ts))] for _ in range(rng.randrange(1, 8))])
        sig = list(c.signature)
        nl_partial = -sig_oracle.seq_logprob(sig, False)
        nl_total = -sig_oracle.seq_logprob(sig, True)
        gap = max(1, abs(cfg.target_length - len(sig)))
        expected = 10.0 ** -max(
            nl_partial / len(sig), nl_total / ((len(sig) + 2) * gap)
        )
        assert fitness(c, sig_lm5.scorer, cfg) == pytest.approx(expected, abs=1e-9)


def test_fitness_bounded_in_unit_interval(sig_lm5, desk_factored_inventory):
    cfg = default_cfg()
    rng = random.Random(22)
    ts = desk_factored_inventory.templates
    for _ in range(120):
        c = make_chromosome([ts[rng.randrange(len(ts))] for _ in range(rng.randrange(1, 12))])
        f = fitness(c, sig_lm5.scorer, cfg)
        assert 0.0 < f <= 1.0


def test_fitness_finite_at_target_length(sig_lm5, desk_factored_inventory):
    # the length gap clamps to one instead of zeroing the denominator
    cfg = default_cfg(target_length=3)
    c = make_chromosome(desk_factored_inventory.templates[:3])
    f = fitness(c, sig_lm5.scorer, cfg)
    assert 0.0 < f <= 1.0


# -------------------------------------------------------------- initial state


def test_init_population_is_single_templates(desk_factored_inventory, token_lm3, sig_lm5):
    cfg = default_cfg(population_size=50)
    state = init_population(desk_factored_inventory, cfg, sig_lm5.scorer, random.Random(5))
    assert state.generation == 0
    assert len(state.population) == 50
    assert len(state.stats) == 1
    for c in state.population:
        assert len(c) == 1
        assert c.fitness is not None
        assert c.templates[0] in desk_factored_inventory.templates


def test_init_population_replays_randrange(desk_factored_inventory, sig_lm5):
    cfg = default_cfg(population_size=40)
    state = init_population(desk_factored_inventory, cfg, sig_lm5.scorer, random.Random(9))
    shadow = random.Random(9)
    want = [
        desk_factored_inventory.templates[
            shadow.randrange(len(desk_factored_inventory.templates))
        ]
        for _ in range(40)
    ]
    assert [c.templates[0] for c in state.population] == want


def test_init_population_draws_uniformly(desk_factored_inventory, sig_lm5):
    cfg = default_cfg(population_size=8000, tournament_size=5)
    state = init_population(desk_factored_inventory, cfg, sig_lm5.scorer, random.Random(6))
    index = desk_factored_inventory.index()
    observed = [0] * len(desk_factored_inventory.templates)
    for c in state.population:
        observed[index[c.templates[0]]] += 1
    _, p = sps.chisquare(observed)
    assert p > 0.001


def test_empty_inventory_rejected(sig_lm5):
    empty = extract_templates([])
    with pytest.raises(EmptyInventory):
        init_population(empty, default_cfg(), sig_lm5.scorer, random.Random(0))


# ------------------------------------------------------------------ tournament


def test_tournament_round_replays_documented_rng_contract(
    desk_factored_inventory, token_lm3, sig_lm5
):
    cfg = default_cfg(population_size=40, tournament_size=6, nbest=8, mutation_p=0.1)
    rng = random.Random(31)
    state = init_population(desk_factored_inventory, cfg, sig_lm5.scorer, rng)
    replay = random.Random()
    replay.setstate(rng.getstate())

    got = tournament_round(state, cfg, token_lm3.scorer, sig_lm5.scorer, desk_factored_inventory, rng)

    idxs = replay.sample(range(len(state.population)), cfg.tournament_size)
    sample = [state.population[i] for i in idxs]
    children = []
    for i, p in enumerate(sample):
        for j, q in enumerate(sample):
            if i == j:
                continue
            if replay.random() < junction_probability(token_lm3.scorer, p, q):
                child = crossover(p, q)
                if replay.random() < cfg.mutation_p:
                    child = single(
                        desk_factored_inventory.templates[
                            replay.randrange(len(desk_factored_inventory.templates))
                        ]
                    )
                child.fitness = fitness(child, sig_lm5.scorer, cfg)
                children.append(child)
    children.sort(key=lambda c: -c.fitness)
    want = children[: cfg.nbest]

    assert [c.surface for c in got] == [c.surface for c in want]
    assert [c.fitness for c in got] == [c.fitness for c in want]
    assert rng.getstate() == replay.getstate()


def test_tournament_output_sorted_and_capped(desk_factored_inventory, token_lm3, sig_lm5):
    cfg = default_cfg(population_size=40, tournament_size=8, nbest=6)
    rng = random.Random(32)
    state = init_population(desk_factored_inventory, cfg, sig_lm5.scorer, rng)
    for _ in range(25):
        out = tournament_round(state, cfg, token_lm3.scorer, sig_lm5.scorer, desk_factored_inventory, rng)
        assert len(out) <= cfg.nbest
        assert all(a.fitness >= b.fitness for a, b in zip(out, out[1:]))


def rejecting_model(vocab_words):
    """Order-2 model that gives every transition probability 10**-99."""
    vocab = frozenset(vocab_words) | {"<s>", "</s>"}
    logprobs = {(w,): -99.0 for w in vocab}
    return NGramModel(2, vocab, logprobs, {}, -99.0)


def test_rejecting_junctions_produce_no_offspring(desk_factored_inventory, sig_lm5):
    words = {s for t in desk_factored_inventory.templates for s in t.items}
    cfg = default_cfg(population_size=12, tournament_size=4, nbest=4)
    rng = random.Random(33)
    state = init_population(desk_factored_inventory, cfg, sig_lm5.scorer, rng)
    out = tournament_round(
        state, cfg, rejecting_model(words).scorer, sig_lm5.scorer, desk_factored_inventory, rng
    )
    assert out == []


# ----------------------------------------------------------------- generations


def test_generation_preserves_population_size(
    desk_factored_inventory, token_lm3, sig_lm5
):
    for pop in (9, 10, 31):
        cfg = default_cfg(population_size=pop, tournament_size=4, nbest=4)
        rng = random.Random(41)
        state = init_population(desk_factored_inventory, cfg, sig_lm5.scorer, rng)
        for _ in range(3):
            state = evolve_generation(
                state, cfg, token_lm3.scorer, sig_lm5.scorer, desk_factored_inventory, rng
            )
            assert len(state.population) == pop


def test_generation_keeps_fittest_parent(desk_factored_inventory, token_lm3, sig_lm5):
    cfg = default_cfg(population_size=20, tournament_size=4, nbest=4)
    rng = random.Random(42)
    state = init_population(desk_factored_inventory, cfg, sig_lm5.scorer, rng)
    for _ in range(5):
        best_parent = max(state.population, key=lambda c: c.fitness)
        state = evolve_generation(
            state, cfg, token_lm3.scorer, sig_lm5.scorer, desk_factored_inventory, rng
        )
        assert best_parent in state.population
        assert max(c.fitness for c in state.population) >= best_parent.fitness


def test_generation_structure_is_parents_plus_offspring(
    desk_factored_inventory, token_lm3, sig_lm5
):
    cfg = default_cfg(population_size=16, tournament_size=4, nbest=4)
    rng = random.Random(43)
    state = init_population(desk_factored_inventory, cfg, sig_lm5.scorer, rng)
    parents = sorted(state.population, key=lambda c: -c.fitness)
    nxt = evolve_generation(state, cfg, token_lm3.scorer, sig_lm5.scorer, desk_factored_inventory, rng)
    # the fittest half of the parents comes first, in fitness order
    assert nxt.population[:8] == parents[:8]


def test_rejecting_model_falls_back_to_parents(desk_factored_inventory, sig_lm5):
    words = {s for t in desk_factored_inventory.templates for s in t.items}
    cfg = default_cfg(population_size=6, tournament_size=3, nbest=3)
    rng = random.Random(44)
    state = init_population(desk_factored_inventory, cfg, sig_lm5.scorer, rng)
    parents = sorted(state.population, key=lambda c: -c.fitness)
    nxt = evolve_generation(
        state, cfg, rejecting_model(words).scorer, sig_lm5.scorer, desk_factored_inventory, rng
    )
    assert nxt.generation == 1
    assert nxt.population == parents  # cap hit, population carried over whole


def test_pair_cap_scales_with_population():
    assert PAIR_CAP_FACTOR == 10_000


# ------------------------------------------------------------------- full runs


def test_run_zero_generations(desk_factored_inventory, token_lm3, sig_lm5):
    cfg = default_cfg(generations=0, population_size=25)
    res = run(cfg, desk_factored_inventory, token_lm3.scorer, sig_lm5.scorer)
    assert len(res.stats) == 1
    assert res.stats[0].generation == 0
    assert len(res.population) == 25
    assert all(len(c) == 1 for c in res.population)


def test_run_observer_sees_every_generation(desk_factored_inventory, token_lm3, sig_lm5):
    seen = []
    cfg = default_cfg(generations=4, population_size=20, tournament_size=4, nbest=4)
    run(cfg, desk_factored_inventory, token_lm3.scorer, sig_lm5.scorer, observer=lambda s: seen.append(s.generation))
    assert seen == [0, 1, 2, 3, 4]


def test_run_is_deterministic_per_seed(desk_factored_inventory, token_lm3, sig_lm5):
    cfg = default_cfg(generations=3, population_size=20, tournament_size=4, nbest=4, rng_seed=7)
    a = run(cfg, desk_factored_inventory, token_lm3.scorer, sig_lm5.scorer)
    b = run(cfg, desk_factored_inventory, token_lm3.scorer, sig_lm5.scorer)
    assert list(population_lines(a.population)) == list(population_lines(b.population))
    assert list(stats_csv_lines(a.stats)) == list(stats_csv_lines(b.stats))
    other = run(
        dataclasses.replace(cfg, rng_seed=8),
        desk_factored_inventory,
        token_lm3.scorer,
        sig_lm5.scorer,
    )
    assert list(population_lines(other.population)) != list(population_lines(a.population))


def test_run_stats_cover_all_generations(desk_factored_inventory, token_lm3, sig_lm5):
    cfg = default_cfg(generations=6, population_size=20, tournament_size=4, nbest=4)
    res = run(cfg, desk_factored_inventory, token_lm3.scorer, sig_lm5.scorer)
    assert [s.generation for s in res.stats] == list(range(7))
    assert all(0.0 < s.mean_fitness <= 1.0 for s in res.stats)
    assert all(s.max_fitness >= s.mean_fitness for s in res.stats)


def test_evolved_survivors_resemble_training_signatures(
    desk_factored_inventory, token_lm3, sig_lm5
):
    # after a short run most of the fittest chromosomes read like contiguous
    # runs of chunk tags actually seen in training
    cfg = GAConfig(
        target_length=5,
        population_size=200,
        tournament_size=10,
        nbest=10,
        mutation_p=0.05,
        generations=20,
        rng_seed=1,
    )
    res = run(cfg, desk_factored_inventory, token_lm3.scorer, sig_lm5.scorer)
    train_sigs = desk_factored_inventory.signature_sequences()

    def contiguous(needle, hay):
        n = len(needle)
        return any(hay[i : i + n] == needle for i in range(len(hay) - n + 1))

    top = sorted(res.population, key=lambda c: -c.fitness)[:20]
    hits = sum(1 for c in top if any(contiguous(c.signature, s) for s in train_sigs))
    assert hits >= 10  # at least half


# ------------------------------------------------------------------ reporting


def test_stats_csv_rendering():
    from templex.ga import GenStats

    rows = [
        GenStats(0, 0.5, 0.75, 3.0, 0.0),
        GenStats(1, 0.123456789, 1.0, 2.5, 1.25),
    ]
    lines = list(stats_csv_lines(rows))
    assert lines[0] == STATS_HEADER == "generation,mean_fitness,max_fitness,mean_len,std_len"
    assert lines[1] == "0,0.500000,0.750000,3.000000,0.000000"
    assert lines[2] == "1,0.123457,1.000000,2.500000,1.250000"


def test_population_line_rendering():
    c = make_chromosome(
        [lex_template(["the", "cat"], "NP"), lex_template(["sat"], "VP")]
    )
    c.fitness = 0.5
    (line,) = population_lines([c])
    assert line == "the cat sat\tNP VP\t0.50000000"


def test_gen_stats_hand_checked():
    from templex.ga import _gen_stats

    a = make_chromosome([lex_template(["x"], "NP")])
    b = make_chromosome([lex_template(["y"], "VP"), lex_template(["z"], "NP")])
    a.fitness, b.fitness = 0.2, 0.6
    s = _gen_stats(3, [a, b])
    assert s.generation == 3
    assert s.mean_fitness == pytest.approx(0.4)
    assert s.max_fitness == 0.6
    assert s.mean_len == pytest.approx(1.5)
    assert s.std_len == pytest.approx(0.5)


# ----------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kw",
    [
        {"target_length": 0},
        {"tournament_size": 1},
        {"tournament_size": 31},  # > population_size of 30
        {"mutation_p": -0.01},
        {"mutation_p": 1.01},
        {"nbest": 0},
        {"nbest": 21},  # > 5 * 4
        {"generations": -1},
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        default_cfg(**kw)
