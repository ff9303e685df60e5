"""Traced run: the CLI commands in-process, with spans at module boundaries.

Timing wrappers are installed from outside on the functions one module
exposes to the next -- the names ``templex.cli`` imports, the GA operators,
the scorer's query methods, the table build and the ARPA reader and writer
-- and removed afterwards; no program file changes.  Every call makes a span
(name, start, end, parent), kept in compact arrays and written at the end to
``work/<workload>/spans.bin``, indexed by ``trace.json``.  A layer's self
time is its spans' duration minus that of their child spans.

The traced artifacts must match the untraced pass byte for byte, and the GA
counters must add up: rounds x tournament_size*(tournament_size-1) pairs are
tried in each generation and no more pairs are accepted than tried.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
import traceback
from array import array
from collections import Counter

import kernelbench
from ops import (
    GENERATE_ARTIFACTS,
    TRAIN_ARTIFACTS,
    Op,
    Prepared,
    References,
    check_generate,
    check_train,
    ga_seed,
    generate_op,
    train_op,
)

import templex.cli as cli
import templex.ga as ga
import templex.kernels as kernels
import templex.ngram.counts as ngram_counts
import templex.ngram.smoothing as smoothing

S, COUNT, RATIO = "s", "count", "ratio"

# Per-layer metrics of a traced run, as listed in BENCHMARK.json.
PER_LAYER_UNITS = {
    "corpus.parse_s": S,
    "corpus.extract_s": S,
    "corpus.token_counts_s": S,
    "corpus.inventory_write_s": S,
    "corpus.inventory_read_s": S,
    "corpus.sentences": COUNT,
    "corpus.templates_raw": COUNT,
    "factoring.inventory_s": S,
    "factoring.stream_s": S,
    "factoring.templates_factored": COUNT,
    "ngram.count_s": S,
    "ngram.kn_s": S,
    "ngram.grams_token": COUNT,
    "ngram.grams_signature": COUNT,
    "arpa.write_s": S,
    "arpa.read_s": S,
    "arpa.bytes": "bytes",
    "tables.build_s": S,
    "tables.contexts": COUNT,
    "kernel.logprob_s": S,
    "kernel.logprob_calls": COUNT,
    "kernel.seq_s": S,
    "kernel.seq_calls": COUNT,
    "kernel.seq_tokens": COUNT,
    "kernel.single_qps": "1/s",
    "kernel.seq_per_s": "1/s",
    "ga.run_s": S,
    "ga.init_s": S,
    "ga.gate_calls": COUNT,
    "ga.gate_self_s": S,
    "ga.gate_accept_ratio": RATIO,
    "ga.rounds": COUNT,
    "ga.fitness_calls": COUNT,
    "ga.fitness_self_s": S,
    "ga.crossover_s": S,
    "ga.select_self_s": S,
    "ga.mutations": COUNT,
    "ga.padded_parents": COUNT,
    "ga.mean_len_final": "templates",
    "ga.gen_s_p50": S,
    "ga.gen_s_p90": S,
    "cli.config_hash_s": S,
    "cli.write_outputs_s": S,
    "trace.generate_s": S,
    "trace.overhead_s": S,
}


class Tracer:
    """Spans in four parallel arrays; the open spans form a stack."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper; ``after(span, result,
        *args)`` runs once the call has returned, outside its span."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(idx, result, *args)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def spans_of(self, name: str) -> list[int]:
        nid = self.names.index(name)
        return [i for i, n in enumerate(self.name) if n == nid]

    def aggregate(self):
        """Per name: (calls, total seconds, self seconds)."""
        k = len(self.names)
        calls, total, child = [0] * k, [0.0] * k, [0.0] * k
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(len(name)):
            d = end[i] - start[i]
            calls[name[i]] += 1
            total[name[i]] += d
            p = parent[i]
            if p >= 0:
                child[name[p]] += d
        return {
            n: (calls[i], total[i], total[i] - child[i]) for i, n in enumerate(self.names)
        }

    def nested(self, name: str) -> Counter:
        """Seconds of ``name`` spans inside each ancestor span, by ancestor index."""
        inside: Counter = Counter()
        for idx in self.spans_of(name):
            d = self.duration(idx)
            p = self.parent[idx]
            while p >= 0:
                inside[p] += d
                p = self.parent[p]
        return inside

    def write(self, spans_path, index_path, extra: dict) -> None:
        with open(spans_path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        index = {
            "spans": len(self.name),
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "layout_note": "each column stored whole, in this order; parent -1 is a root",
            "names": self.names,
        }
        index.update(extra)
        with open(index_path, "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=1)


class GACounters:
    """Per-generation counters, read from the spans each generation encloses."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.rows: list[dict] = []
        self.offspring = 0
        self.mutations = 0
        self.ids = {n: tracer.name_id(n) for n in ("ga.tournament", "ga.junction", "ga.crossover")}

    def on_round(self, idx, result, *args) -> None:
        self.offspring += len(result)

    def on_mutate(self, idx, result, chromosome, *args) -> None:
        if result is not chromosome:
            self.mutations += 1

    def on_generation(self, idx, new_state, state, cfg, *args) -> None:
        inside = self.tracer.name[idx + 1 :]  # every span since this one opened
        tried = inside.count(self.ids["ga.junction"])
        need = cfg.population_size - cfg.population_size // 2
        lengths = [len(c) for c in new_state.population]
        self.rows.append(
            {
                "generation": new_state.generation,
                "span": idx,
                "rounds": inside.count(self.ids["ga.tournament"]),
                "pairs_tried": tried,
                "pairs_accepted": inside.count(self.ids["ga.crossover"]),
                "mutations": self.mutations,
                "offspring": self.offspring,
                "padded_parents": max(0, need - self.offspring),
                "pair_cap_hit": tried >= ga.PAIR_CAP_FACTOR * cfg.population_size,
                "mean_len": statistics.fmean(lengths),
                "max_len": max(lengths),
                "pairs_per_round": cfg.tournament_size * (cfg.tournament_size - 1),
            }
        )
        self.offspring = self.mutations = 0

    def problems(self) -> list[str]:
        out = []
        for row in self.rows:
            if row["rounds"] * row["pairs_per_round"] != row["pairs_tried"]:
                out.append(
                    "generation %d: %d rounds but %d pairs tried"
                    % (row["generation"], row["rounds"], row["pairs_tried"])
                )
            if row["pairs_accepted"] > row["pairs_tried"]:
                out.append("generation %d: more pairs accepted than tried" % row["generation"])
        return out


class Observed:
    """Counts the wrappers collect from call results."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.models: list[int] = []  # grams per trained model, token model first
        self.writes: dict[int, str] = {}  # span index -> file name written
        self.backends: set[str] = set()
        self.arpa_bytes = 0

    def count(self, key, measure=len):
        def after(idx, result, *args):
            self.counts[key] += measure(result)

        return after

    def on_write(self, idx, result, path, lines) -> None:
        self.writes[idx] = path.name

    def on_arpa_write(self, idx, result, model, path) -> None:
        self.arpa_bytes += path.stat().st_size

    def on_sequence(self, idx, result, scorer, tokens, *args) -> None:
        self.counts["kernel.seq_tokens"] += len(tokens)


def install(tracer: Tracer, observed: Observed, gac: GACounters) -> None:
    wrap = tracer.wrap
    wrap(cli, "cmd_train", "cli.train")
    wrap(cli, "cmd_generate", "cli.generate")
    wrap(cli, "config_hash", "cli.config_hash")
    wrap(cli, "_write_lines", "cli.write_lines", observed.on_write)
    wrap(cli, "parse_conll_file", "corpus.parse", observed.count("corpus.sentences"))
    wrap(cli, "extract_templates", "corpus.extract", observed.count("corpus.templates_raw", _templates))
    wrap(cli, "token_counts", "corpus.token_counts")
    wrap(cli, "parse_inventory_lines", "corpus.inventory_read")
    wrap(cli, "factor_inventory", "factoring.inventory", observed.count("factoring.templates_factored", _templates))
    wrap(cli, "factored_token_stream", "factoring.stream")
    wrap(cli, "train", "ngram.train", lambda i, r, *a: observed.models.append(len(r.logprobs)))
    wrap(ngram_counts, "count_ngrams", "ngram.count")
    wrap(smoothing, "estimate_discounts", "ngram.kn")
    wrap(smoothing, "train_kn", "ngram.kn")
    wrap(cli, "write_arpa_file", "arpa.write", observed.on_arpa_write)
    wrap(cli, "read_arpa_file", "arpa.read")
    wrap(cli, "run", "ga.run")
    wrap(kernels, "make_scorer", "kernel.make_scorer", lambda i, r, *a: observed.backends.add(r.backend))
    wrap(kernels, "build_tables", "tables.build", observed.count("tables.contexts", lambda r: len(r.ctx_len)))
    wrap(kernels.ModelScorer, "logprob", "kernel.logprob")
    wrap(kernels.ModelScorer, "sequence_logprob", "kernel.seq", observed.on_sequence)
    wrap(ga, "init_population", "ga.init")
    wrap(ga, "evolve_generation", "ga.generation", gac.on_generation)
    wrap(ga, "tournament_round", "ga.tournament", gac.on_round)
    wrap(ga, "junction_probability", "ga.junction")
    wrap(ga, "crossover", "ga.crossover")
    wrap(ga, "mutate", "ga.mutate", gac.on_mutate)
    wrap(ga, "fitness", "ga.fitness")


def _templates(inventory) -> int:
    return len(inventory.templates)


def traced_command(command: str, cfg) -> tuple[int, float, str]:
    """``templex <command>`` in-process: (exit code, wall seconds, output)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main([command, "--config", str(cfg)])
        except Exception:  # a crash is a failed op, reported with its traceback
            traceback.print_exc()
            code = -1
    return code, time.perf_counter() - t0, out.getvalue()


def traced_run(prep: Prepared, refs: References):
    """(ops, per-layer metrics, notes, backend) of one traced pass."""
    workload = prep.workload
    seed = ga_seed(prep.seed, 0)
    untraced = prep.root / "out"
    ops = [train_op(prep, refs, untraced, seed)]
    ops.append(generate_op(prep, refs, untraced, seed, "generate"))
    if any(op.problems for op in ops):
        return ops, {}, [], ""

    traced = prep.root / "traced"
    cfg = prep.config(traced, seed, workload.generations)
    tracer, observed = Tracer(), Observed()
    gac = GACounters(tracer)
    install(tracer, observed, gac)
    try:
        results = [traced_command(command, cfg) for command in ("train", "generate")]
    finally:
        tracer.restore()
    backend = ",".join(sorted(observed.backends))
    for (code, wall, output), kind in zip(results, ("train", "generate")):
        op = Op("traced-" + kind, wall, 0.0)
        if code != 0:
            op.problems.append("traced %s exited %d: %s" % (kind, code, output.strip()[-500:]))
        ops.append(op)
    check_train(prep, refs, traced, ops[2])
    check_generate(prep, refs, traced, ops[3], seed, workload.generations)
    ops[3].problems += gac.problems()
    if any(op.problems for op in ops):
        return ops, {}, [], backend

    rates, kernel_problems, kernel_note = kernelbench.run(prep.seed)
    ops[3].problems += kernel_problems
    agg = tracer.aggregate()
    metrics = layer_metrics(tracer, agg, observed, gac, rates[min(observed.backends)])
    metrics["trace.generate_s"] = results[1][1]
    metrics["trace.overhead_s"] = results[1][1] - ops[1].wall_s

    notes = [
        "kernel micro-benchmark: "
        + "; ".join("%s %.0f q/s, %.0f seq/s" % (b, q, s) for b, (q, s) in rates.items())
        + " (%s)" % kernel_note,
        "traced artifacts compared with the untraced pass: %s" % ", ".join(TRAIN_ARTIFACTS + GENERATE_ARTIFACTS),
    ] + stress_notes(agg, metrics)
    tracer.write(
        prep.root / "spans.bin",
        prep.root / "trace.json",
        {"workload": workload.name, "seed": prep.seed, "metrics": metrics, "generations": gac.rows},
    )
    return ops, metrics, notes, backend


def layer_metrics(tracer: Tracer, agg, observed: Observed, gac: GACounters, kernel_rates) -> dict[str, float]:
    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def writes(files):
        return sum(tracer.duration(i) for i, f in observed.writes.items() if f in files)

    builds = tracer.nested("tables.build")
    gens = [tracer.duration(r["span"]) - builds[r["span"]] for r in gac.rows] or [0.0]
    init = tracer.spans_of("ga.init")
    ga_runs = tracer.spans_of("ga.run")
    rows = gac.rows
    tried = sum(r["pairs_tried"] for r in rows)
    token_grams, sig_grams = observed.models
    return {
        "corpus.parse_s": total("corpus.parse"),
        "corpus.extract_s": total("corpus.extract"),
        "corpus.token_counts_s": total("corpus.token_counts"),
        "corpus.inventory_write_s": writes({"inventory.tsv"}),
        "corpus.inventory_read_s": total("corpus.inventory_read"),
        "corpus.sentences": observed.counts["corpus.sentences"],
        "corpus.templates_raw": observed.counts["corpus.templates_raw"],
        "factoring.inventory_s": total("factoring.inventory"),
        "factoring.stream_s": total("factoring.stream"),
        "factoring.templates_factored": observed.counts["factoring.templates_factored"],
        "ngram.count_s": total("ngram.count"),
        "ngram.kn_s": total("ngram.kn"),
        "ngram.grams_token": token_grams,
        "ngram.grams_signature": sig_grams,
        "arpa.write_s": total("arpa.write"),
        "arpa.read_s": total("arpa.read"),
        "arpa.bytes": observed.arpa_bytes,
        "tables.build_s": total("tables.build"),
        "tables.contexts": observed.counts["tables.contexts"],
        "kernel.logprob_s": total("kernel.logprob"),
        "kernel.logprob_calls": calls("kernel.logprob"),
        "kernel.seq_s": total("kernel.seq"),
        "kernel.seq_calls": calls("kernel.seq"),
        "kernel.seq_tokens": observed.counts["kernel.seq_tokens"],
        "kernel.single_qps": kernel_rates[0],
        "kernel.seq_per_s": kernel_rates[1],
        "ga.run_s": sum(tracer.duration(i) - builds[i] for i in ga_runs),
        "ga.init_s": sum(tracer.duration(i) - builds[i] for i in init),
        "ga.gate_calls": calls("ga.junction"),
        "ga.gate_self_s": self_s("ga.junction"),
        "ga.gate_accept_ratio": sum(r["pairs_accepted"] for r in rows) / tried if tried else 0.0,
        "ga.rounds": sum(r["rounds"] for r in rows),
        "ga.fitness_calls": calls("ga.fitness"),
        "ga.fitness_self_s": self_s("ga.fitness"),
        "ga.crossover_s": total("ga.crossover"),
        "ga.select_self_s": self_s("ga.generation") + self_s("ga.tournament"),
        "ga.mutations": sum(r["mutations"] for r in rows),
        "ga.padded_parents": sum(r["padded_parents"] for r in rows),
        "ga.mean_len_final": rows[-1]["mean_len"] if rows else 0.0,
        "ga.gen_s_p50": statistics.median(gens),
        "ga.gen_s_p90": statistics.quantiles(gens, n=10)[-1] if len(gens) > 1 else gens[0],
        "cli.config_hash_s": total("cli.config_hash"),
        "cli.write_outputs_s": writes(set(GENERATE_ARTIFACTS)),
    }


def stress_notes(agg, m: dict[str, float]) -> list[str]:
    """Which layer this workload stresses, read off the traced spans."""

    def seconds(name, column):
        return agg[name][column] if name in agg else 0.0

    gate = seconds("ga.junction", 2) + seconds("kernel.logprob", 1)
    fit_cross = seconds("ga.fitness", 2) + seconds("kernel.seq", 1) + seconds("ga.crossover", 1)
    commands = seconds("cli.train", 1) + seconds("cli.generate", 1)
    ga_time = m["ga.run_s"]
    return [
        "gate (self + kernel) %.3f s = %.1f%% of GA %.3f s" % (gate, 100 * gate / ga_time, ga_time),
        "fitness + crossover (self + kernel) %.3f s vs gate %.3f s" % (fit_cross, gate),
        "GA %.1f%% of traced train + generate %.3f s" % (100 * ga_time / commands, commands),
    ]
