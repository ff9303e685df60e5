"""One benchmark op = one ``templex`` CLI invocation, timed and checked.

An op fails on a non-zero exit, on an artifact whose sha256 differs from its
reference, or on an artifact that breaks a structural check re-derived from
the corpus and config alone (not from the program's code).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
REFERENCE_FILE = BENCH / "reference.json"

TRAIN_ARTIFACTS = ("inventory.tsv", "token_lm.arpa", "signature_lm.arpa")
GENERATE_ARTIFACTS = ("stats.csv", "population.txt")
CHILD_TIMEOUT_S = 120.0


def ga_seed(seed: int, cycle: int) -> int:
    """GA seed of a run's ``cycle``; distinct across seeds and cycles."""
    return seed * 1000 + cycle


@dataclass
class Op:
    kind: str  # train, setup or generate (traced-* in the traced run)
    wall_s: float
    rss_mb: float
    ga: int = 0  # the GA seed in the op's config
    problems: list[str] = field(default_factory=list)


@dataclass
class Prepared:
    """A workload materialised for one seed: its corpus and work directory."""

    workload: Workload
    seed: int
    root: Path
    chunks: int  # chunk occurrences in the corpus, the inventory's count total

    @property
    def corpus(self) -> Path:
        return self.root / "corpus.conll"

    def config(self, outdir: Path, ga: int, generations: int) -> Path:
        path = self.root / ("%s-g%d-n%d.cfg" % (outdir.name, ga, generations))
        path.write_text(
            self.workload.config_text(self.corpus, outdir, ga, generations), encoding="utf-8"
        )
        return path


def prepare(workload: Workload, seed: int) -> Prepared:
    root = WORK / workload.name
    root.mkdir(parents=True, exist_ok=True)
    chunks = workload.corpus.write(root / "corpus.conll", seed)
    return Prepared(workload, seed, root, chunks)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_cli(kind: str, command: str, cfg: Path) -> Op:
    """One ``templex`` invocation in a child; wall time and peak RSS via wait4."""
    log = cfg.with_suffix(".stderr")
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "templex.cli", command, "--config", str(cfg)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(kind, wall, usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        op.problems.append("%s exited %d: %s" % (command, proc.returncode, " ".join(tail)))
    return op


def digests(outdir: Path, names) -> dict[str, str]:
    out = {}
    for name in names:
        h = hashlib.sha256()
        with open(outdir / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def check_train_outputs(outdir: Path, chunks: int) -> list[str]:
    problems = []
    total = 0
    with open(outdir / "inventory.tsv", encoding="utf-8") as fh:
        for line in fh:
            total += int(line.split("\t", 1)[0])
    if total != chunks:
        problems.append("inventory.tsv counts sum to %d, corpus has %d chunks" % (total, chunks))
    for name in TRAIN_ARTIFACTS[1:]:
        declared = entries = 0
        ended = False
        with open(outdir / name, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("ngram "):
                    declared += int(line.split("=", 1)[1])
                elif line.startswith("\\end\\"):
                    ended = True
                elif line.strip() and not line.startswith("\\"):
                    entries += 1
        if not ended or declared == 0 or declared != entries:
            problems.append("%s declares %d grams and holds %d" % (name, declared, entries))
    return problems


def check_generate_outputs(outdir: Path, population: int, generations: int) -> list[str]:
    problems = []
    lengths, fits = [], []
    with open(outdir / "population.txt", encoding="utf-8") as fh:
        for line in fh:
            _surface, signature, fit = line.rstrip("\n").split("\t")
            lengths.append(len(signature.split(" ")))
            fits.append(float(fit))
    rows = (outdir / "stats.csv").read_text(encoding="utf-8").splitlines()
    if len(lengths) != population:
        problems.append("population.txt has %d lines, expected %d" % (len(lengths), population))
    if not all(0.0 < f <= 1.0 for f in fits):
        problems.append("population.txt has a fitness outside (0, 1]")
    if len(rows) != generations + 2 or not rows[0].startswith("generation,"):
        problems.append("stats.csv has %d lines, expected %d" % (len(rows), generations + 2))
    elif lengths:
        last = rows[-1].split(",")
        if abs(float(last[3]) - statistics.fmean(lengths)) > 1e-6 or abs(float(last[2]) - max(fits)) > 1e-6:
            problems.append("stats.csv last row disagrees with population.txt")
    return problems


class References:
    """Stored sha256 digests for one workload and seed, plus this run's own.

    An artifact is compared with the stored digest when there is one, and
    otherwise with the first op of this run that produced it.
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, str(seed)
        self.stored = _load_references().get(workload, {}).get(self.seed, {})
        self.seen: dict[str, dict[str, str]] = {}
        self.stored_checks = 0

    def check(self, key: str, got: dict[str, str]) -> list[str]:
        first = self.seen.setdefault(key, got)
        want = self.stored.get(key)
        if want is None:
            want = first
        else:
            self.stored_checks += 1
        return ["%s differs from its reference (%s)" % (n, key) for n in got if got[n] != want.get(n)]

    def record(self) -> None:
        stored = _load_references()
        stored.setdefault(self.workload, {}).setdefault(self.seed, {}).update(self.seen)
        REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def _load_references() -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def check_train(prep: Prepared, refs: References, outdir: Path, op: Op) -> Op:
    if not op.problems:
        op.problems += check_train_outputs(outdir, prep.chunks)
        op.problems += refs.check("train", digests(outdir, TRAIN_ARTIFACTS))
    return op


def check_generate(prep: Prepared, refs: References, outdir: Path, op: Op, ga: int, generations: int) -> Op:
    if not op.problems:
        op.problems += check_generate_outputs(outdir, prep.workload.population, generations)
        key = "%s-g%d" % ("generate" if generations else "setup", ga)
        op.problems += refs.check(key, digests(outdir, GENERATE_ARTIFACTS))
    return op


def train_op(prep: Prepared, refs: References, outdir: Path, ga: int) -> Op:
    cfg = prep.config(outdir, ga, prep.workload.generations)
    op = run_cli("train", "train", cfg)
    op.ga = ga
    return check_train(prep, refs, outdir, op)


def generate_op(prep: Prepared, refs: References, outdir: Path, ga: int, kind: str) -> Op:
    gens = prep.workload.generations if kind == "generate" else 0
    op = run_cli(kind, "generate", prep.config(outdir, ga, gens))
    op.ga = ga
    return check_generate(prep, refs, outdir, op, ga, gens)
