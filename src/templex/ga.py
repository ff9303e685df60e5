"""Genetic search over template sequences.

Chromosomes are ordered template lists; crossover is juxtaposition, gated by
the token model's probability of the junction transition; mutation resets a
chromosome to a single random template; fitness scores the chunk-tag
signature under the signature model, normalized for length and for distance
from the target length.  Each generation keeps the fittest half of the
parents and fills the other half with tournament offspring.

Every chromosome carries the model state the search reads, set when it is
made and never recomputed: ``head``, the token model's id of its first
token; ``tail``, the token scorer's state after all of its tokens; and
``summary``, the walk of its chunk tags under the signature scorer.
``make_chromosome`` walks its templates once; ``crossover`` composes the
parents' state.  A kernel state depends only on the last order - 1 tokens,
so the child's head is the left parent's and its tail is the right
parent's when the right parent has at least order - 1 templates (each has
at least one token), and otherwise the left parent's tail walked on through
the right parent's tokens.  A tried pair thus costs one ``kernel.score``
of (left tail, right head) and no string encoding, slicing or context walk.

Fitness runs on a ``Summary`` of the signature's walk under the signature
scorer, carried as ``summary``: the ids of the first ``span`` = order - 1
items (``head_ids``), the open per-item log10 probabilities, the open total,
the boundary-closed total before the end symbol, and the open and closed end
states.  One rule builds and composes it: ``_extend`` steps the open and
closed walks side by side over new items, and as one walk once their states
meet.  A kernel state is the longest stored context that ends the history,
at most ``span`` items long, so the states meet after ``span`` items at the
latest and every later logprob and state depends only on the items read.
``summarize`` extends the empty summary (states 0 and the start-padded
state); ``compose(scorer, a, b)`` extends ``a`` by ``b.head_ids``, then adds
b's remaining logprobs to both totals and takes b's end state.  A child
thus costs at most 2 * span kernel steps and one float addition per item,
and keeps no ids beyond its first ``span``.  It is bit-identical to a fresh
walk: both totals are left folds from 0.0, so a's totals are exact prefixes
of the child's, and b's remaining logprobs are added one at a time, in
order; a pre-summed suffix, or ``sum()`` (compensated since Python 3.12),
could change the last bit.

Reproducibility contract: all randomness flows through one ``random.Random``.
A tournament round consumes, in order: one ``sample()`` of tournament_size
population indices, then for every ordered pair (outer index, inner index,
skipping equal) one ``random()`` for the junction gate, and for each accepted
pair one ``random()`` for the mutation gate plus one ``randrange()`` when the
mutation fires.  A sample of the chromosomes draws as a sample of their
indices does.  Population initialization consumes one ``randrange()`` per
chromosome.  Identical seed, config, and corpus therefore replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import permutations
from operator import add
from statistics import fmean, pstdev
from typing import Callable, Iterator, NamedTuple, Sequence

from .corpus import Template, TemplateInventory
from .kernels import ModelScorer


class EmptyInventory(ValueError):
    """Cannot evolve over an inventory with no templates."""


class FitnessOverflow(ArithmeticError):
    """A model scores a signature so far above probability one that its
    fitness, 10**(-cost), is beyond the float range."""


class Summary(NamedTuple):
    """One signature's walk under the signature scorer: enough to compose a
    child's."""

    head_ids: tuple[int, ...]  # ids of the first span items
    lps: tuple[float, ...]  # open per-item log10 probabilities
    open_total: float
    closed_total: float  # with start symbols, before the end symbol
    open_state: int
    closed_state: int


def _span(scorer: ModelScorer) -> int:
    """Items after which the state no longer depends on what came before."""
    return scorer.tables.order - 1


def _extend(scorer: ModelScorer, s: Summary, ids) -> Summary:
    """The summary of s's items followed by the items ``ids``: the open and
    closed walks step side by side, and as one walk once their states meet."""
    step = scorer.kernel.score_step
    open_total, closed_total = s.open_total, s.closed_total
    open_state, closed_state = s.open_state, s.closed_state
    lps = []
    for tid in ids:
        lp, state = step(open_state, tid)
        if closed_state == open_state:
            closed_lp, closed_state = lp, state
        else:
            closed_lp, closed_state = step(closed_state, tid)
        open_state = state
        open_total += lp
        closed_total += closed_lp
        lps.append(lp)
    span = _span(scorer)
    head_ids = (s.head_ids + tuple(ids[:span]))[:span]
    return Summary(
        head_ids, s.lps + tuple(lps), open_total, closed_total, open_state, closed_state
    )


def summarize(scorer: ModelScorer, items: Sequence[str]) -> Summary:
    """The walk of ``items`` from the empty and from the start-padded state."""
    empty = Summary((), (), 0.0, 0.0, 0, scorer.tables.bos_state)
    return _extend(scorer, empty, scorer.encode(items))


def compose(scorer: ModelScorer, a: Summary, b: Summary) -> Summary:
    """The summary of a's items followed by b's, both under ``scorer``."""
    s = _extend(scorer, a, b.head_ids)
    rest = b.lps[_span(scorer) :]
    if not rest:
        return s
    return Summary(
        s.head_ids,
        s.lps + rest,
        reduce(add, rest, s.open_total),
        reduce(add, rest, s.closed_total),
        b.open_state,
        b.open_state,
    )


@dataclass
class Chromosome:
    templates: tuple[Template, ...]
    head: int = field(compare=False, repr=False)  # token id of the first item
    tail: int = field(compare=False, repr=False)  # token state after every item
    summary: Summary = field(compare=False, repr=False)  # the tags' walk
    fitness: float | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.templates)


def _items(templates: Sequence[Template]) -> list[str]:
    return [s for t in templates for s in t.items]


def make_chromosome(
    templates: Sequence[Template], scorer: ModelScorer, sig_scorer: ModelScorer
) -> Chromosome:
    """A chromosome and its model state, from fresh walks of its templates."""
    ids = scorer.encode(_items(templates))
    return Chromosome(
        tuple(templates),
        ids[0],
        scorer.kernel.walk(0, ids),
        summarize(sig_scorer, [t.tag for t in templates]),
    )


@dataclass(frozen=True)
class GAConfig:
    """Evolution hyperparameters.

    The parent/offspring split is fixed at 50-50: each new generation is the
    fittest half of the parents plus the fittest accumulated offspring.
    Every field is also a config-file key of the command line, ``ga.<field>``
    (``seed`` for rng_seed), with the same default.
    """

    target_length: int = 5
    population_size: int = 1000
    tournament_size: int = 10
    nbest: int = 10
    mutation_p: float = 0.05
    generations: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if self.target_length < 1:
            raise ValueError("target_length must be >= 1")
        if self.tournament_size < 2:
            raise ValueError("tournament_size must be >= 2")
        if self.tournament_size > self.population_size:
            raise ValueError("tournament_size cannot exceed population_size")
        if not 0.0 <= self.mutation_p <= 1.0:
            raise ValueError("mutation_p must be in [0, 1]")
        if self.nbest < 1 or self.nbest > self.tournament_size * (self.tournament_size - 1):
            raise ValueError("nbest must be in [1, tournament_size*(tournament_size-1)]")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")


@dataclass(frozen=True)
class GenStats:
    generation: int
    mean_fitness: float
    max_fitness: float
    mean_len: float
    std_len: float


@dataclass
class GAState:
    """A generation's population, the stats of every generation so far, and
    the scorers its chromosomes' model state belongs to; ``run`` returns the
    final one.  The operators read the scorers from here, so a population is
    never scored under other models than it was made with."""

    generation: int
    population: list[Chromosome]
    stats: list[GenStats]
    scorer: ModelScorer = field(repr=False)  # the token scorer: junction gate
    sig_scorer: ModelScorer = field(repr=False)  # the signature scorer: fitness


# Gives up on a generation after this many candidate pairs per population
# member, so a model that rejects everything cannot livelock the search.
PAIR_CAP_FACTOR = 10_000


def junction_probability(scorer: ModelScorer, left: Chromosome, right: Chromosome) -> float:
    """Probability of the first token of ``right`` following the end of
    ``left`` under the token scorer."""
    lp = scorer.kernel.score(left.tail, right.head)
    # a log10 probability above 0 (possible with positive ARPA backoff
    # weights) is certain acceptance, and 10.0 ** lp may overflow
    return 10.0 ** lp if lp < 0.0 else 1.0


def crossover(
    left: Chromosome, right: Chromosome, scorer: ModelScorer, sig_scorer: ModelScorer
) -> Chromosome:
    """Juxtapose two chromosomes, composing the parents' model state."""
    if len(right.templates) >= _span(scorer):
        tail = right.tail
    else:
        tail = scorer.kernel.walk(left.tail, scorer.encode(_items(right.templates)))
    return Chromosome(
        left.templates + right.templates,
        left.head,
        tail,
        compose(sig_scorer, left.summary, right.summary),
    )


def mutate(
    c: Chromosome,
    inventory: TemplateInventory,
    cfg: GAConfig,
    scorer: ModelScorer,
    sig_scorer: ModelScorer,
    rng: random.Random,
) -> Chromosome:
    """With probability mutation_p, reset to one random inventory template."""
    if rng.random() < cfg.mutation_p:
        template = inventory.templates[rng.randrange(len(inventory.templates))]
        return make_chromosome((template,), scorer, sig_scorer)
    return c


def fitness(c: Chromosome, scorer: ModelScorer, cfg: GAConfig) -> float:
    """Length-normalized signature score in (0, 1].

    Uses the larger of the two per-length negative log costs -- the open
    sequence cost and the boundary-closed cost additionally normalized by the
    distance to the target length (clamped to >= 1) -- and maps it through
    10**(-cost), so 1.0 means every transition had probability one.  Both
    costs come from ``c.summary``.  Raises ``FitnessOverflow`` when
    10**(-cost) does not fit a float.
    """
    s = c.summary
    length = len(c.templates)
    nl_partial = -s.open_total
    nl_total = -(s.closed_total + scorer.kernel.score(s.closed_state, scorer.tables.eos_id))
    gap = abs(cfg.target_length - length)
    if gap < 1:
        gap = 1
    cost = max(nl_partial / length, nl_total / ((length + 2) * gap))
    try:
        return 10.0 ** (-cost)
    except OverflowError:
        raise FitnessOverflow("fitness 10**%g is beyond the float range" % -cost) from None


def init_population(
    inventory: TemplateInventory,
    cfg: GAConfig,
    scorer: ModelScorer,
    sig_scorer: ModelScorer,
    rng: random.Random,
) -> GAState:
    """Population of single random templates, fitness precomputed."""
    if not inventory.templates:
        raise EmptyInventory("no templates to draw from")
    population = []
    for _ in range(cfg.population_size):
        template = inventory.templates[rng.randrange(len(inventory.templates))]
        c = make_chromosome((template,), scorer, sig_scorer)
        c.fitness = fitness(c, sig_scorer, cfg)
        population.append(c)
    return GAState(0, population, [_gen_stats(0, population)], scorer, sig_scorer)


def tournament_round(
    state: GAState, cfg: GAConfig, inventory: TemplateInventory, rng: random.Random
) -> list[Chromosome]:
    """One tournament: every ordered pair of a random sample of the
    population, junction-gated crossover, mutation, then the nbest offspring
    by fitness (ties keep production order)."""
    scorer, sig_scorer = state.scorer, state.sig_scorer
    offspring: list[Chromosome] = []
    for p, q in permutations(rng.sample(state.population, cfg.tournament_size), 2):
        if rng.random() < junction_probability(scorer, p, q):
            child = crossover(p, q, scorer, sig_scorer)
            child = mutate(child, inventory, cfg, scorer, sig_scorer, rng)
            child.fitness = fitness(child, sig_scorer, cfg)
            offspring.append(child)
    offspring.sort(key=lambda c: -c.fitness)
    return offspring[: cfg.nbest]


def evolve_generation(
    state: GAState, cfg: GAConfig, inventory: TemplateInventory, rng: random.Random
) -> GAState:
    """Accumulate tournament offspring for the other half of the population,
    then keep the fittest half of the parents plus the fittest offspring,
    padded with the next-fittest parents if the pair budget ran out first."""
    half = cfg.population_size // 2
    need = cfg.population_size - half
    pairs_per_round = cfg.tournament_size * (cfg.tournament_size - 1)
    pair_cap = PAIR_CAP_FACTOR * cfg.population_size
    offspring: list[Chromosome] = []
    pairs = 0
    while len(offspring) < need and pairs < pair_cap:
        offspring.extend(tournament_round(state, cfg, inventory, rng))
        pairs += pairs_per_round
    parents = sorted(state.population, key=lambda c: -c.fitness)
    offspring.sort(key=lambda c: -c.fitness)
    next_pop = parents[:half] + (offspring + parents[half:])[:need]
    generation = state.generation + 1
    return GAState(
        generation,
        next_pop,
        state.stats + [_gen_stats(generation, next_pop)],
        state.scorer,
        state.sig_scorer,
    )


def run(
    cfg: GAConfig,
    inventory: TemplateInventory,
    scorer: ModelScorer,
    sig_scorer: ModelScorer,
    observer: Callable[[GAState], None] | None = None,
) -> GAState:
    """Seeded end-to-end evolution for exactly cfg.generations generations,
    the junction gate on the token ``scorer`` and fitness on ``sig_scorer``
    (``model.scorer`` of a trained model, or ``make_scorer`` of its tables)."""
    rng = random.Random(cfg.rng_seed)
    state = init_population(inventory, cfg, scorer, sig_scorer, rng)
    if observer is not None:
        observer(state)
    for _ in range(cfg.generations):
        state = evolve_generation(state, cfg, inventory, rng)
        if observer is not None:
            observer(state)
    return state


def _gen_stats(generation: int, population: list[Chromosome]) -> GenStats:
    lengths = [float(len(c)) for c in population]
    return GenStats(
        generation=generation,
        mean_fitness=fmean(c.fitness for c in population),
        max_fitness=max(c.fitness for c in population),
        mean_len=fmean(lengths),
        std_len=pstdev(lengths),
    )


STATS_HEADER = "generation,mean_fitness,max_fitness,mean_len,std_len"


def stats_csv_lines(stats: Sequence[GenStats]) -> Iterator[str]:
    yield STATS_HEADER
    for s in stats:
        yield "%d,%.6f,%.6f,%.6f,%.6f" % (
            s.generation,
            s.mean_fitness,
            s.max_fitness,
            s.mean_len,
            s.std_len,
        )


def population_lines(population: Sequence[Chromosome]) -> Iterator[str]:
    for c in population:
        tags = " ".join(t.tag for t in c.templates)
        yield "%s\t%s\t%.8f" % (" ".join(_items(c.templates)), tags, c.fitness)
