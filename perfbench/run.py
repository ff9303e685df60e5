#!/usr/bin/env python3
"""templex benchmark: the real CLI on seeded workloads, end to end and by layer.

    python3 perfbench/run.py --workload sweep-gate --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload train-large --seed 0 --trace 1
    python3 perfbench/run.py --workload all --seed 0
    python3 perfbench/run.py --workload dense-bloat --seed 3 --record

Run from the repository root.  ``--trace 0`` times ``python -m templex.cli``
child processes, one at a time: ``train``, ``generate`` with
``ga.generations=0`` (the set-up) and the full ``generate``, interleaved by
the workload's weights until no kind's next op fits in ``--seconds``, and
reports the slowest repeat of each (see ``END_TO_END_UNITS``).
``--trace 1`` makes one untraced pass, repeats it in-process with timing
wrappers on the module boundaries (``tracing.py``) and runs the kernel
micro-benchmark (``kernelbench.py``).

Every op is checked (``ops.py``); ``--record`` adds this run's artifact
digests to ``reference.json``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any op failed and 2 when the program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from ops import ROOT, SRC, Op, Prepared, References, ga_seed, generate_op, prepare, train_op
from workloads import WORKLOADS

# Metrics of an untraced run, as listed in BENCHMARK.json.  The host these
# were tuned on runs the same work at two speeds ~1.75x apart, in spells of
# ~5-30 s, and the share of slow time in a 40 s run ranged from ~10% to ~90%
# between runs minutes apart.  A run's mean and median follow that share: over
# ten dense-bloat seeds in one such period, the train and set-up means and
# medians spread 0.27-0.47 of their median, the slowest repeats 0.07-0.12.
# Slow spells came in every run seen, so the slowest repeat of an op reads
# the program at the host's slow speed.  So each timing is the slowest repeat
# of its op; ``generate_s`` takes it per GA seed and then
# the mean over the run's GA seeds (``slowest_per_seed``), so every GA
# trajectory weighs the same.  Peak RSS does not depend on the host's speed
# and is the median.
END_TO_END_UNITS = {
    "train_s": "s",
    "setup_s": "s",
    "generate_s": "s",
    "train_rss_mb": "MiB",
    "generate_rss_mb": "MiB",
}


def measure(prep: Prepared, refs: References, seconds: float) -> list[Op]:
    """Untraced ops: an untimed warm-up train, a first pass that runs each op
    once, then ops of the kind furthest below its share of ``seconds`` (the
    workload's ``weights``), until no kind's next op fits in the time left.
    Generates cycle through the run's GA seeds."""
    outdir = prep.root / "out"
    seeds = [ga_seed(prep.seed, c) for c in range(prep.workload.trajectories)]
    weights = dict(zip(("train", "setup", "generate"), prep.workload.weights))
    spent = dict.fromkeys(weights, 0.0)
    last: dict[str, float] = {}
    ops: list[Op] = []

    def run(kind: str, ga: int) -> None:
        op = train_op(prep, refs, outdir, ga) if kind == "train" else generate_op(prep, refs, outdir, ga, kind)
        ops.append(op)
        spent[kind] += op.wall_s
        last[kind] = op.wall_s

    # The warm-up compiles the program's bytecode in a fresh checkout and
    # warms the file cache.  It is checked like any op and uses up part of
    # ``seconds``, but no metric includes it.
    start = time.perf_counter()
    warmup = train_op(prep, refs, outdir, seeds[0])
    warmup.kind = "warmup"
    ops.append(warmup)
    for kind, ga in [("train", seeds[0]), ("setup", seeds[0])] + [("generate", g) for g in seeds]:
        if any(op.problems for op in ops):
            return ops
        run(kind, ga)
    while not any(op.problems for op in ops):
        left = seconds - (time.perf_counter() - start)
        fits = [k for k in weights if last[k] <= left]
        if not fits:
            break
        kind = min(fits, key=lambda k: spent[k] / weights[k])
        done = [op.ga for op in ops if op.kind == "generate"]
        run(kind, min(seeds, key=done.count) if kind == "generate" else seeds[0])
    return ops


def slowest_per_seed(ops: list[Op]) -> float:
    """Mean over the ops' GA seeds of the slowest wall time among the ops with that seed."""
    by_seed: dict[int, list[float]] = {}
    for op in ops:
        by_seed.setdefault(op.ga, []).append(op.wall_s)
    return statistics.fmean(max(v) for v in by_seed.values())


def end_to_end(ops: list[Op]) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Each metric's samples, and its value."""
    timed = [op for op in ops if op.kind in ("train", "setup", "generate")]
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    for op in timed:
        samples["%s_s" % op.kind].append(op.wall_s)
        if op.kind != "setup":
            samples["%s_rss_mb" % op.kind].append(op.rss_mb)
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    for kind in ("train", "setup", "generate"):
        of_kind = [op for op in timed if op.kind == kind]
        if of_kind:
            metrics["%s_s" % kind] = slowest_per_seed(of_kind)
    return samples, metrics


def tail_percentile(values: list[float]):
    """(p, value) at the highest whole percentile with at least ten samples
    beyond it, or None below 20 samples, where no tail beyond p50 qualifies."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, sorted(values)[min(n - 1, n * p // 100)]


def describe(values: list[float], unit: str) -> str:
    tail = tail_percentile(values)
    extra = "p%d %.4f" % tail if tail else "no tail percentile (n < 20)"
    return "median %.4f  mean %.4f %s  n=%d  %s" % (
        statistics.median(values), statistics.fmean(values), unit, len(values), extra
    )


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown (git not available)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def artifact_counts(prep: Prepared) -> dict[str, int]:
    """Template counts from the manifest and gram counts from the ARPA headers."""
    outdir = prep.root / "out"
    counts = {}
    for line in (outdir / "manifest.txt").read_text(encoding="utf-8").splitlines():
        key, _, val = line.partition("=")
        if key != "config_hash":
            counts[key] = int(val)
    for name, key in (("token_lm.arpa", "grams_token"), ("signature_lm.arpa", "grams_signature")):
        with open(outdir / name, encoding="utf-8") as fh:
            counts[key] = sum(int(line.split("=", 1)[1]) for line in fh if line.startswith("ngram "))
    return counts


def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    workload = WORKLOADS[name]
    prep = prepare(workload, seed)
    refs = References(name, seed)
    if trace:
        import tracing

        ops, metrics, notes, backend = tracing.traced_run(prep, refs)
        units = tracing.PER_LAYER_UNITS
    else:
        from templex.kernels import DEFAULT_BACKEND

        ops = measure(prep, refs, seconds)
        samples, metrics = end_to_end(ops)
        notes = ["%-16s %s" % (k, describe(v, END_TO_END_UNITS[k])) for k, v in samples.items() if v]
        units, backend = END_TO_END_UNITS, DEFAULT_BACKEND
    failed = [op for op in ops if op.problems]
    if record and not failed:
        refs.record()
    from templex.kernels import available_backends

    meta = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "ga_seeds": sorted({int(k.rsplit("-g", 1)[1]) for k in refs.seen if "-g" in k}),
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": backend,
        "backends_built": list(available_backends()),
        "reference": "stored, %d checks" % refs.stored_checks if refs.stored_checks else "this run only",
        "counts": artifact_counts(prep) if ops and not ops[0].problems else {},
    }
    with open(prep.root / ("result-seed%d-trace%d.json" % (seed, trace)), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics, "ops": [vars(op) for op in ops]}, fh, indent=1)
    return {"meta": meta, "ops": ops, "failed": failed, "metrics": metrics, "units": units, "notes": notes}


def print_report(result: dict) -> None:
    meta = result["meta"]
    print("== %s  seed %d  trace %d: %s" % (meta["workload"], meta["seed"], meta["trace"], meta["why"]))
    for line in result["notes"]:
        print("  " + line)
    for key, value in result["metrics"].items():
        print("  %-28s %.6g %s" % (key, value, result["units"][key]))
    print("  ops_failed %d of ops_attempted %d" % (len(result["failed"]), len(result["ops"])))
    for op in result["failed"]:
        print("  FAILED %s: %s" % (op.kind, "; ".join(op.problems)))
    if "native" not in meta["backends_built"]:
        print("  kernel backend: python only; the native extension is not built")
    print("  meta " + json.dumps(meta, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="add this run's digests to reference.json")
    args = ap.parse_args(argv)
    if not (SRC / "templex" / "cli.py").is_file():
        print("error: no templex sources under %s; run from a repository checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TEMPLEX_OUTDIR", None)  # would override the configs' outdir

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.record) for n in names]
    for result in results:
        print_report(result)
    prefix = len(results) > 1
    metrics = {
        ("%s.%s" % (r["meta"]["workload"], k) if prefix else k): {"value": v, "unit": r["units"][k]}
        for r in results
        for k, v in r["metrics"].items()
    }
    attempted = sum(len(r["ops"]) for r in results)
    failed = sum(len(r["failed"]) for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
