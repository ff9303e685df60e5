"""Workload definitions: a seeded CoNLL corpus plus a templex config each.

The program only ever sees the generated corpus file and the config file;
the workload seed drives both the corpus generator and the GA seed.  Each
workload is sized so that one layer dominates its run, and records why.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CHUNK_TAGS = ("NP", "VP", "PP", "ADVP", "ADJP", "SBAR", "PRT")
POS_CYCLE = ("NN", "VB", "JJ", "IN", "RB", "DT")


@dataclass(frozen=True)
class Corpus:
    """Synthetic chunk-annotated text with an exponential word profile."""

    sentences: int
    vocab: int
    mean_rank: float  # mean of the exponential word-rank distribution
    chunks: tuple[int, int]  # chunks per sentence, inclusive range
    chunk_len: tuple[int, int]  # tokens per chunk, inclusive range

    def write(self, path: Path, seed: int) -> int:
        """Write the corpus for ``seed``; returns its number of chunk occurrences."""
        rng = random.Random(seed)
        words = ["w%04d" % i for i in range(self.vocab)]
        last = self.vocab - 1
        rate = 1.0 / self.mean_rank
        lines = []
        chunks = 0
        for _ in range(self.sentences):
            for _ in range(rng.randint(*self.chunks)):
                chunks += 1
                tag = rng.choice(CHUNK_TAGS)
                for i in range(rng.randint(*self.chunk_len)):
                    rank = min(int(rng.expovariate(rate)), last)
                    bio = ("B-" if i == 0 else "I-") + tag
                    lines.append("%s %s %s\n" % (words[rank], POS_CYCLE[rank % 6], bio))
            if rng.random() < 0.5:
                chunks += 1
                lines.append(". . O\n")
            lines.append("\n")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        return chunks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: Corpus
    factor: tuple[str, int]
    token_order: int
    signature_order: int
    population: int
    generations: int
    trajectories: int  # GA seeds per run; each is generated again and again
    weights: tuple[float, float, float]  # run-time shares of train, set-up, generate

    def config_text(self, corpus: Path, outdir: Path, seed: int, generations: int) -> str:
        mode, threshold = self.factor
        return "".join(
            "%s=%s\n" % kv
            for kv in (
                ("corpus", corpus),
                ("outdir", outdir),
                ("factor.mode", mode),
                ("factor.threshold", threshold),
                ("token_lm_order", self.token_order),
                ("signature_lm_order", self.signature_order),
                ("ga.target_length", 5),
                ("ga.population_size", self.population),
                ("ga.tournament_size", 10),
                ("ga.nbest", 10),
                ("ga.mutation_p", 0.05),
                ("ga.generations", generations),
                ("seed", seed),
            )
        )


# ``absolute`` with threshold 1 gaps only words whose count is below 1, and
# every corpus word has count >= 1, so the inventory and token stream equal
# the unfactored ones; the factoring layer still runs and is timed.
IDENTITY_FACTORING = ("absolute", 1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-gate",
            why="acceptance-sweep scale: ~0.5% gate acceptance, so junction queries dominate the GA",
            corpus=Corpus(4200, 600, 80.0, (2, 5), (1, 3)),
            factor=IDENTITY_FACTORING,
            token_order=3,
            signature_order=5,
            population=1000,
            generations=3,
            trajectories=1,
            weights=(2.0, 0.5, 4.0),
        ),
        Workload(
            name="dense-bloat",
            why="6-word vocab, 2-5 tokens a chunk: ~19% gate acceptance and long token sequences, so fitness and crossover outweigh the gate",
            corpus=Corpus(4200, 6, 2.0, (2, 5), (2, 5)),
            factor=IDENTITY_FACTORING,
            token_order=3,
            signature_order=5,
            population=600,
            generations=18,
            trajectories=4,
            weights=(2.0, 0.5, 4.0),
        ),
        Workload(
            name="train-large",
            why="12k sentences, 8k vocab, relative factoring: mining, training and ARPA IO dominate, GA is tiny",
            corpus=Corpus(12000, 8000, 1000.0, (2, 6), (1, 3)),
            factor=("relative", 1500),
            token_order=3,
            signature_order=5,
            population=100,
            generations=2,
            trajectories=1,
            weights=(3.0, 1.0, 2.0),
        ),
    )
}
