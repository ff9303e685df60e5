"""Genetic search over template sequences.

Chromosomes are ordered template lists; crossover is juxtaposition, gated by
the token model's probability of the junction transition; mutation resets a
chromosome to a single random template; fitness scores the chunk-tag
signature under the signature model, normalized for length and for distance
from the target length.  Each generation keeps the fittest half of the
parents and fills the other half with tournament offspring.

The junction gate runs on model state carried by each chromosome: ``ends``
caches the token scorer it was computed for, the id of the first surface
token and the scorer's state after the last order - 1 surface tokens.  It
is filled on a chromosome's first gate use and refilled when a different
scorer asks, so a tried pair costs one ``kernel.score`` and no string
encoding, slicing or context walk.  ``crossover`` composes a child's ends:
the head is the left parent's and, when the right parent has at least
order - 1 surface tokens, the tail is the right parent's; otherwise the
child starts without ends.

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
state); ``compose(a, b)`` extends ``a`` by ``b.head_ids``, then adds b's
remaining logprobs to both totals and takes b's end state.  A child thus
costs at most 2 * span kernel steps and one float addition per item, and
keeps no ids beyond its first ``span``.  It is bit-identical to a fresh
walk: both totals are left folds from 0.0, so a's totals are exact prefixes
of the child's, and b's remaining logprobs are added one at a time, in
order; a pre-summed suffix, or ``sum()`` (compensated since Python 3.12),
could change the last bit.

Reproducibility contract: all randomness flows through one ``random.Random``.
A tournament round consumes, in order: one ``sample()`` of tournament_size
population indices, then for every ordered pair (outer index, inner index,
skipping equal) one ``random()`` for the junction gate, and for each accepted
pair one ``random()`` for the mutation gate plus one ``randrange()`` when the
mutation fires.  Population initialization consumes one ``randrange()`` per
chromosome.  Identical seed, config, and corpus therefore replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from statistics import fmean, pstdev
from typing import Callable, Iterator, NamedTuple, Sequence

from .corpus import Template, TemplateInventory
from .kernels import ModelScorer
from .ngram.model import NGramModel


class EmptyInventory(ValueError):
    """Cannot evolve over an inventory with no templates."""


class FitnessOverflow(ArithmeticError):
    """A model scores a signature so far above probability one that its
    fitness, 10**(-cost), is beyond the float range."""


class Summary(NamedTuple):
    """One signature's walk under ``scorer``: enough to compose a child's."""

    scorer: ModelScorer
    head_ids: tuple[int, ...]  # ids of the first span items
    lps: tuple[float, ...]  # open per-item log10 probabilities
    open_total: float
    closed_total: float  # with start symbols, before the end symbol
    open_state: int
    closed_state: int


def _span(scorer: ModelScorer) -> int:
    """Items after which the state no longer depends on what came before."""
    return scorer.tables.order - 1


def _extend(s: Summary, ids) -> Summary:
    """The summary of s's items followed by the items ``ids``: the open and
    closed walks step side by side, and as one walk once their states meet."""
    step = s.scorer.kernel.score_step
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
    span = _span(s.scorer)
    head_ids = (s.head_ids + tuple(ids[:span]))[:span]
    return Summary(
        s.scorer, head_ids, s.lps + tuple(lps), open_total, closed_total, open_state, closed_state
    )


def summarize(scorer: ModelScorer, items: Sequence[str]) -> Summary:
    """The walk of ``items`` from the empty and from the start-padded state."""
    empty = Summary(scorer, (), (), 0.0, 0.0, 0, scorer.tables.bos_state)
    return _extend(empty, scorer.encode(items))


def compose(a: Summary, b: Summary) -> Summary:
    """The summary of a's items followed by b's, both under a.scorer."""
    s = _extend(a, b.head_ids)
    rest = b.lps[_span(a.scorer) :]
    if not rest:
        return s
    return Summary(
        a.scorer,
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
    surface: tuple[str, ...]  # concatenated template items
    signature: tuple[str, ...]  # one chunk tag per template
    fitness: float | None = field(default=None, compare=False)
    # (token scorer, head id, tail state), filled by the junction gate
    ends: tuple | None = field(default=None, compare=False, repr=False)
    # the signature's walk under the signature scorer, filled by fitness
    summary: Summary | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.templates)


def make_chromosome(templates: Sequence[Template]) -> Chromosome:
    surface = tuple(s for t in templates for s in t.items)
    signature = tuple(t.tag for t in templates)
    return Chromosome(tuple(templates), surface, signature)


def single(template: Template) -> Chromosome:
    return Chromosome((template,), template.items, (template.tag,))


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
    """A generation's population and the stats of every generation so far;
    ``run`` returns the final one."""

    generation: int
    population: list[Chromosome]
    stats: list[GenStats]


# Gives up on a generation after this many candidate pairs per population
# member, so a model that rejects everything cannot livelock the search.
PAIR_CAP_FACTOR = 10_000


def _ends(c: Chromosome, scorer) -> tuple:
    c.ends = (scorer,) + scorer.ends(c.surface)
    return c.ends


def junction_probability(lm: NGramModel, left: Chromosome, right: Chromosome) -> float:
    """Probability of the first token of ``right`` following the end of ``left``."""
    scorer = lm.scorer
    tail = left.ends
    if tail is None or tail[0] is not scorer:
        tail = _ends(left, scorer)
    head = right.ends
    if head is None or head[0] is not scorer:
        head = _ends(right, scorer)
    lp = scorer.kernel.score(tail[2], head[1])
    # a log10 probability above 0 (possible with positive ARPA backoff
    # weights) is certain acceptance, and 10.0 ** lp may overflow
    return 10.0 ** lp if lp < 0.0 else 1.0


def crossover(left: Chromosome, right: Chromosome) -> Chromosome:
    """Juxtapose two chromosomes, composing whatever model state both carry."""
    a, b = left.summary, right.summary
    summary = compose(a, b) if a is not None and b is not None and a.scorer is b.scorer else None
    e, f = left.ends, right.ends
    ends = None
    if e is not None and f is not None and e[0] is f[0] and len(right.surface) >= _span(e[0]):
        ends = (e[0], e[1], f[2])
    return Chromosome(
        left.templates + right.templates,
        left.surface + right.surface,
        left.signature + right.signature,
        ends=ends,
        summary=summary,
    )


def mutate(
    c: Chromosome, inventory: TemplateInventory, cfg: GAConfig, rng: random.Random
) -> Chromosome:
    """With probability mutation_p, reset to one random inventory template."""
    if rng.random() < cfg.mutation_p:
        return single(inventory.templates[rng.randrange(len(inventory.templates))])
    return c


def fitness(c: Chromosome, sig_lm: NGramModel, cfg: GAConfig) -> float:
    """Length-normalized signature score in (0, 1].

    Uses the larger of the two per-length negative log costs -- the open
    sequence cost and the boundary-closed cost additionally normalized by the
    distance to the target length (clamped to >= 1) -- and maps it through
    10**(-cost), so 1.0 means every transition had probability one.  Both
    costs come from ``c.summary``, built by one walk when ``c`` carries none
    for this scorer.  Raises ``FitnessOverflow`` when 10**(-cost) does not
    fit a float.
    """
    scorer = sig_lm.scorer
    s = c.summary
    if s is None or s.scorer is not scorer:
        s = c.summary = summarize(scorer, c.signature)
    length = len(c.signature)
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
    inventory: TemplateInventory, cfg: GAConfig, sig_lm: NGramModel, rng: random.Random
) -> GAState:
    """Population of single random templates, fitness precomputed."""
    if not inventory.templates:
        raise EmptyInventory("no templates to draw from")
    population = []
    for _ in range(cfg.population_size):
        c = single(inventory.templates[rng.randrange(len(inventory.templates))])
        c.fitness = fitness(c, sig_lm, cfg)
        population.append(c)
    return GAState(0, population, [_gen_stats(0, population)])


def tournament_round(
    state: GAState,
    cfg: GAConfig,
    lm: NGramModel,
    sig_lm: NGramModel,
    inventory: TemplateInventory,
    rng: random.Random,
) -> list[Chromosome]:
    """One tournament: all ordered pairs of a random sample, junction-gated
    crossover, mutation, then the nbest offspring by fitness (ties keep
    production order)."""
    idxs = rng.sample(range(len(state.population)), cfg.tournament_size)
    sample = [state.population[i] for i in idxs]
    offspring: list[Chromosome] = []
    for i, p in enumerate(sample):
        for j, q in enumerate(sample):
            if i == j:
                continue
            if rng.random() < junction_probability(lm, p, q):
                child = mutate(crossover(p, q), inventory, cfg, rng)
                child.fitness = fitness(child, sig_lm, cfg)
                offspring.append(child)
    offspring.sort(key=lambda c: -c.fitness)
    return offspring[: cfg.nbest]


def evolve_generation(
    state: GAState,
    cfg: GAConfig,
    lm: NGramModel,
    sig_lm: NGramModel,
    inventory: TemplateInventory,
    rng: random.Random,
) -> GAState:
    """Accumulate tournament offspring for half the population, then keep the
    fittest half of the parents plus the fittest offspring, padding with
    further parents if the pair budget ran out first."""
    pop_size = cfg.population_size
    need = (pop_size + 1) // 2
    pairs_per_round = cfg.tournament_size * (cfg.tournament_size - 1)
    pair_cap = PAIR_CAP_FACTOR * pop_size
    offspring: list[Chromosome] = []
    pairs = 0
    while len(offspring) < need and pairs < pair_cap:
        offspring.extend(tournament_round(state, cfg, lm, sig_lm, inventory, rng))
        pairs += pairs_per_round
    parents = sorted(state.population, key=lambda c: -c.fitness)
    offspring.sort(key=lambda c: -c.fitness)
    next_pop = parents[: pop_size // 2] + offspring[: pop_size - pop_size // 2]
    if len(next_pop) < pop_size:
        shortfall = pop_size - len(next_pop)
        next_pop.extend(parents[pop_size // 2 : pop_size // 2 + shortfall])
    generation = state.generation + 1
    return GAState(generation, next_pop, state.stats + [_gen_stats(generation, next_pop)])


def run(
    cfg: GAConfig,
    inventory: TemplateInventory,
    lm: NGramModel,
    sig_lm: NGramModel,
    observer: Callable[[GAState], None] | None = None,
) -> GAState:
    """Seeded end-to-end evolution for exactly cfg.generations generations."""
    rng = random.Random(cfg.rng_seed)
    state = init_population(inventory, cfg, sig_lm, rng)
    if observer is not None:
        observer(state)
    for _ in range(cfg.generations):
        state = evolve_generation(state, cfg, lm, sig_lm, inventory, rng)
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
        yield "%s\t%s\t%.8f" % (" ".join(c.surface), " ".join(c.signature), c.fitness)
