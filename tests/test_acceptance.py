"""Top-level behavioral guarantees, one test per shipped claim.

Each test here states a user-visible contract of the package: probability
laws of the smoothed models, interop with an external toolkit's ARPA files,
the evolution operators' ground truths, full-scale invariants of the search
loop, and byte-level reproducibility of the artifacts.  Run with ``-v`` to
get one pass/fail line per claim.
"""

import math
import random
import time

import pytest

from templex import cli
from templex.corpus import Template, extract_templates
from templex.factoring import FactorPolicy, factor_inventory
from templex.ga import GAConfig, crossover, fitness, make_chromosome, mutate, run
from templex.ngram import count_ngrams, read_arpa_file

from oracles import NaiveKN


def _all_observed_contexts(seqs, order):
    counts = count_ngrams(seqs, order)
    observed = set()
    for k in range(1, order):
        observed.update(counts.raw[k - 1])
    return sorted(observed)


def _random_contexts(vocab, order, n, seed):
    rng = random.Random(seed)
    words = sorted(vocab)
    out = []
    for _ in range(n):
        k = rng.randrange(1, order)
        out.append(tuple(rng.choice(words) for _ in range(k)))
    return out


def test_kneser_ney_models_normalize_over_observed_and_random_contexts(
    token_lm3, sig_lm5, desk_token_seqs, desk_sig_seqs
):
    """For every context seen in training plus 100 random ones, the
    conditional distribution over the vocabulary sums to 1 +- 1e-6, in both
    the order-3 token model and the order-5 signature model, within 5 s."""
    start = time.perf_counter()
    for lm, seqs in ((token_lm3, desk_token_seqs), (sig_lm5, desk_sig_seqs)):
        sc = lm.scorer
        words = sorted(lm.vocab)
        contexts = _all_observed_contexts(seqs, lm.order)
        contexts += _random_contexts(lm.vocab, lm.order, 100, seed=1000 + lm.order)
        assert contexts
        for ctx in contexts:
            total = math.fsum(10.0 ** sc.logprob(ctx, w) for w in words)
            assert abs(total - 1.0) <= 1e-6, (lm.order, ctx, total)
    assert time.perf_counter() - start < 5.0


def test_stored_and_random_logprobs_match_independent_reference(
    token_lm3, sig_lm5, token_oracle, sig_oracle
):
    """Every stored n-gram probability and 1,000 random queries agree with a
    naive, independently written smoother to 1e-9, within 10 s."""
    start = time.perf_counter()
    rng = random.Random(424)
    for lm, oracle in ((token_lm3, token_oracle), (sig_lm5, sig_oracle)):
        for g in lm.logprobs:
            if g == ("<unk>",):
                continue
            got = lm.scorer.logprob(g[:-1], g[-1])
            want = oracle.logprob(g[:-1], g[-1])
            assert abs(got - want) <= 1e-9, g
        words = sorted(lm.vocab) + ["odd-one-out"]
        for _ in range(500):
            ctx = tuple(rng.choice(words) for _ in range(rng.randrange(0, lm.order)))
            w = rng.choice(words)
            assert abs(lm.scorer.logprob(ctx, w) - oracle.logprob(ctx, w)) <= 1e-9, (ctx, w)
    assert time.perf_counter() - start < 10.0


def test_external_toolkit_arpa_scores_match_toolkits_own_scoring(data_dir):
    """A model trained by the vendored third-party Kneser-Ney toolkit, loaded
    through our ARPA reader, reproduces that toolkit's sentence scores on 50
    fixture sentences to 1e-3 log10 (its padding convention differs, hence
    the loose tolerance)."""
    m = read_arpa_file(data_dir / "token_ref.arpa")
    with open(data_dir / "token_ref_scores.tsv", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    assert len(rows) == 50
    worst = 0.0
    for _, sentence, frozen in rows:
        got = m.scorer.sequence_logprob(sentence.split(), with_boundaries=True)
        worst = max(worst, abs(got - float(frozen)))
    assert worst <= 1e-3, worst


def test_crossover_produces_exact_juxtaposed_surface():
    """Joining the chromosome "in the NN" with "VBZ a NN" yields exactly
    "in the NN VBZ a NN"."""
    left = make_chromosome(
        [Template(("in", "the", "NN"), "PP")]
    )
    right = make_chromosome(
        [Template(("VBZ", "a", "NN"), "VP")]
    )
    child = crossover(left, right)
    assert " ".join(child.surface) == "in the NN VBZ a NN"


def test_seeded_mutation_frequency_near_nominal_rate(desk_factored_inventory):
    """100,000 seeded mutate calls at p = 0.05 mutate with frequency
    0.05 +- 0.005."""
    cfg = GAConfig(target_length=5, population_size=10, tournament_size=5,
                   nbest=5, mutation_p=0.05, generations=1, rng_seed=0)
    c = make_chromosome(desk_factored_inventory.templates[:2])
    rng = random.Random(20250823)
    hits = sum(
        1
        for _ in range(100_000)
        if mutate(c, desk_factored_inventory, cfg, rng) is not c
    )
    rate = hits / 100_000.0
    assert abs(rate - 0.05) <= 0.005, rate


def test_fitness_equals_hand_applied_formula_on_hand_built_chromosomes(
    sig_lm5, desk_factored_inventory
):
    """On 20 hand-built chromosomes, fitness equals
    10**-max(NLp/len, NLt/((len+2)*max(1, |L-len|))) to 1e-12, stays finite
    at len = L, and always lands in (0, 1]."""
    cfg = GAConfig(target_length=5, population_size=10, tournament_size=5,
                   nbest=5, mutation_p=0.05, generations=1, rng_seed=0)
    ts = desk_factored_inventory.templates
    rng = random.Random(66)
    lengths = [1, 2, 3, 4, 5, 5, 6, 7, 8, 9, 10, 12, 1, 2, 3, 5, 6, 4, 11, 5]
    assert len(lengths) == 20 and cfg.target_length in lengths
    for n in lengths:
        c = make_chromosome([ts[rng.randrange(len(ts))] for _ in range(n)])
        nl_partial = -sig_lm5.scorer.sequence_logprob(c.signature, False)
        nl_total = -sig_lm5.scorer.sequence_logprob(c.signature, True)
        gap = max(1, abs(cfg.target_length - n))
        expected = 10.0 ** -max(nl_partial / n, nl_total / ((n + 2) * gap))
        got = fitness(c, sig_lm5.scorer, cfg)
        assert abs(got - expected) <= 1e-12, (n, got, expected)
        assert math.isfinite(got)
        assert 0.0 < got <= 1.0


def test_coarser_factoring_policies_never_grow_the_inventory(
    desk_inventory, desk_table
):
    """Unique-template counts shrink monotonically as factoring coarsens:
    absolute threshold 2 keeps at least as many templates as threshold 5, and
    rank cutoff 50 at least as many as cutoff 10."""

    def unique(mode, threshold):
        policy = FactorPolicy(mode, threshold)
        return len(factor_inventory(desk_inventory, desk_table, policy).templates)

    assert unique("absolute", 2) >= unique("absolute", 5)
    assert unique("relative", 50) >= unique("relative", 10)


def test_full_scale_evolution_invariants_hold_for_100_generations(sweep_setup):
    """A seeded population-1000 run over a ~10k-template inventory holds its
    invariants for 100 generations: exact population size throughout, cached
    fitness values that recompute identically on 1,000 sampled chromosomes,
    from their carried summaries and from a fresh walk of their templates,
    the fittest parent surviving every replacement, all inside 5 minutes."""
    inventory, token_lm, sig_lm = sweep_setup
    assert 9_000 <= len(inventory.templates) <= 14_000
    cfg = GAConfig(
        target_length=5,
        population_size=1000,
        tournament_size=10,
        nbest=10,
        mutation_p=0.05,
        generations=100,
        rng_seed=8,
    )

    sizes = []
    carried = []

    def observer(state):
        sizes.append(len(state.population))
        if carried:
            prev_best = carried[-1]
            assert any(c is prev_best for c in state.population)
        carried.append(max(state.population, key=lambda c: c.fitness))

    start = time.perf_counter()
    result = run(cfg, inventory, token_lm.scorer, sig_lm.scorer, observer=observer)
    elapsed = time.perf_counter() - start

    assert sizes == [1000] * 101
    assert len(result.stats) == 101
    best = [s.max_fitness for s in result.stats]
    assert all(a <= b + 1e-15 for a, b in zip(best, best[1:]))

    rng = random.Random(4242)
    for c in rng.sample(result.population, 1000):
        assert c.fitness == fitness(c, sig_lm.scorer, cfg)
        assert c.fitness == fitness(make_chromosome(c.templates), sig_lm.scorer, cfg)

    assert elapsed < 300.0, elapsed


def test_identical_seed_and_config_reproduce_byte_identical_outputs(
    tmp_path, data_dir, monkeypatch
):
    """Two full train+generate pipelines under the same corpus, config, and
    seed write byte-identical artifacts, including the stats CSV and the
    population dump."""
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    blobs = []
    for tag in ("a", "b"):
        cfgfile = tmp_path / ("%s.cfg" % tag)
        cfgfile.write_text(
            "corpus=%s\noutdir=out_%s\nfactor.mode=absolute\nfactor.threshold=2\n"
            "ga.population_size=50\nga.tournament_size=10\nga.nbest=10\n"
            "ga.generations=10\nseed=77\n" % (data_dir / "desk.conll", tag),
            encoding="utf-8",
        )
        assert cli.main(["train", "--config", str(cfgfile)]) == 0
        assert cli.main(["generate", "--config", str(cfgfile)]) == 0
        out = tmp_path / ("out_%s" % tag)
        blobs.append(
            {
                name: (out / name).read_bytes()
                for name in (
                    cli.INVENTORY_FILE,
                    cli.TOKEN_LM_FILE,
                    cli.SIGNATURE_LM_FILE,
                    cli.STATS_FILE,
                    cli.POPULATION_FILE,
                )
            }
        )
    for name in blobs[0]:
        assert blobs[0][name] == blobs[1][name], name


def test_stats_csv_and_inspect_cover_both_trajectories_all_generations(
    tmp_path, data_dir, monkeypatch, capsys
):
    """A 100-generation run logs mean fitness and mean/std length for every
    generation, and the inspect command renders both trajectories."""
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "corpus=%s\noutdir=out\nfactor.mode=absolute\nfactor.threshold=2\n"
        "ga.population_size=60\nga.tournament_size=10\nga.nbest=10\n"
        "ga.generations=100\nseed=3\n" % (data_dir / "desk.conll"),
        encoding="utf-8",
    )
    assert cli.main(["train", "--config", str(cfgfile)]) == 0
    assert cli.main(["generate", "--config", str(cfgfile)]) == 0

    lines = (tmp_path / "out" / cli.STATS_FILE).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "generation,mean_fitness,max_fitness,mean_len,std_len"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(101))
    for r in rows:
        assert len(r) == 5
        mean_fit, mean_len, std_len = float(r[1]), float(r[3]), float(r[4])
        assert 0.0 < mean_fit <= 1.0
        assert mean_len >= 1.0
        assert std_len >= 0.0

    capsys.readouterr()
    assert cli.main(["inspect", str(tmp_path / "out")]) == 0
    shown = capsys.readouterr().out.splitlines()
    fit_line = next(ln for ln in shown if ln.startswith("mean fitness"))
    len_line = next(ln for ln in shown if ln.startswith("mean length"))
    for ln in (fit_line, len_line):
        spark = ln.split()[-1]
        assert len(spark) == 101
        assert all(ch in cli._SPARK for ch in spark)
