"""Command-line surface: train artifacts, run evolution, inspect results.

Runs are driven by a flat ``key=value`` config file.  ``train`` persists the
factored inventory, both models as ARPA text (the interchange format) and as
compiled scorer tables (what ``generate`` loads), and a manifest keyed by a
hash of the training-relevant settings (corpus bytes, factoring policy, model
orders); ``generate`` refuses to run against artifacts trained under a
different hash.  The manifest also records the sha256 of those five files,
and ``generate`` checks them before it parses anything, so an artifact
truncated or edited since ``train`` is an error, not a different run.  Every
file is written to a temporary file beside it and then renamed into place,
so none is left half-written, and the manifest is written last.  Every run
writes its resolved configuration beside its outputs, and every output file
is byte-reproducible from (corpus, config, seed).

Exit codes: 0 success, 1 usage/config error, 2 data or manifest error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

from . import kernels
from .corpus import (
    IllegalBIO,
    MalformedLine,
    extract_templates,
    inventory_lines,
    parse_conll_file,
    parse_inventory_lines,
    token_counts,
)
from .factoring import (
    ABSOLUTE,
    RELATIVE,
    FactorPolicy,
    bare_factors,
    factor_inventory,
    factored_token_stream,
)
from .ga import STATS_HEADER, FitnessOverflow, GAConfig, population_lines, run, stats_csv_lines
from .kernels import DEFAULT_BACKEND, MalformedTables, available_backends, read_tables, write_tables
# generate reads no ARPA; read_arpa_file stays because perfbench/tracing.py wraps it by name
from .ngram import read_arpa_file, train, write_arpa_file  # noqa: F401

OUTDIR_ENV = "TEMPLEX_OUTDIR"

INVENTORY_FILE = "inventory.tsv"
TOKEN_LM_FILE = "token_lm.arpa"
SIGNATURE_LM_FILE = "signature_lm.arpa"
TOKEN_TABLES_FILE = "token_lm.tables"
SIGNATURE_TABLES_FILE = "signature_lm.tables"
MANIFEST_FILE = "manifest.txt"
RESOLVED_CONFIG_FILE = "config.resolved"
STATS_FILE = "stats.csv"
POPULATION_FILE = "population.txt"

# The trained files; the manifest records each one's sha256 under
# DIGEST_KEY.  generate reads the inventory and the tables files, and checks
# the ARPA files too, so that all five come from one train.
ARTIFACT_FILES = (
    INVENTORY_FILE,
    TOKEN_LM_FILE,
    SIGNATURE_LM_FILE,
    TOKEN_TABLES_FILE,
    SIGNATURE_TABLES_FILE,
)
DIGEST_KEY = "sha256.%s"


class ConfigError(ValueError):
    """Bad config file or option values (exit code 1)."""


class DataError(ValueError):
    """Unreadable/invalid input data or artifacts (exit code 2)."""


class ManifestMismatch(DataError):
    """Artifacts on disk were trained under a different config hash."""


@dataclass(frozen=True)
class RunConfig:
    corpus: Path
    outdir: Path
    policy: FactorPolicy | None  # None = keep templates fully lexical
    token_lm_order: int
    signature_lm_order: int
    ga: GAConfig


def parse_config_text(text: str, source: str) -> dict[str, str]:
    """Flat key=value lines; ``#`` comments and blank lines are skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError("%s:%d: expected key=value, got %r" % (source, lineno, line))
        if key in values:
            raise ConfigError("%s:%d: duplicate key %r" % (source, lineno, key))
        values[key] = val.strip()
    return values


# Every GAConfig field is the config key ``ga.<field>``, except rng_seed,
# which is ``seed``; the key takes the field's default and its value type.
_GA_FIELDS = {("seed" if f.name == "rng_seed" else "ga." + f.name): f for f in fields(GAConfig)}

_KNOWN_KEYS = frozenset(
    {"corpus", "outdir", "factor.mode", "factor.threshold", "token_lm_order", "signature_lm_order"}
    | _GA_FIELDS.keys()
)

_TYPE_NAMES = {int: "an integer", float: "a number"}


def _value(values: dict[str, str], key: str, default):
    """The value of ``key`` parsed as the type of ``default``, or ``default``."""
    raw = values.get(key)
    if raw is None:
        return default
    kind = type(default)
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError("%s must be %s, got %r" % (key, _TYPE_NAMES[kind], raw)) from None


def load_run_config(path: Path) -> RunConfig:
    """Read and validate a config file; relative paths resolve against it."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    values = parse_config_text(text, str(path))
    unknown = sorted(set(values) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError("%s: unknown keys: %s" % (path, ", ".join(unknown)))
    if "corpus" not in values:
        raise ConfigError("%s: missing required key 'corpus'" % path)
    base = path.resolve().parent
    corpus = base / Path(values["corpus"])

    env_out = os.environ.get(OUTDIR_ENV)
    if env_out:
        outdir = Path(env_out).absolute()
    elif "outdir" in values:
        outdir = base / Path(values["outdir"])
    else:
        raise ConfigError(
            "%s: no output directory (set outdir= or the %s environment variable)"
            % (path, OUTDIR_ENV)
        )

    mode = values.get("factor.mode", "none")
    if mode == "none":
        if "factor.threshold" in values:
            raise ConfigError("factor.threshold is only valid with factor.mode=absolute|relative")
        policy = None
    elif mode in (ABSOLUTE, RELATIVE):
        if "factor.threshold" not in values:
            raise ConfigError("factor.mode=%s requires factor.threshold" % mode)
        try:
            policy = FactorPolicy(mode, _value(values, "factor.threshold", 0))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        raise ConfigError("factor.mode must be none, absolute, or relative (got %r)" % mode)

    token_order = _value(values, "token_lm_order", 3)
    sig_order = _value(values, "signature_lm_order", 5)
    if token_order < 1 or sig_order < 1:
        raise ConfigError("model orders must be >= 1")
    try:
        ga = GAConfig(
            **{f.name: _value(values, key, f.default) for key, f in _GA_FIELDS.items()}
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(corpus, outdir, policy, token_order, sig_order, ga)


def config_hash(cfg: RunConfig) -> str:
    """Digest of everything training depends on: corpus bytes, factoring
    policy, and both model orders.  Generation-only settings (GA knobs, seed,
    outdir) deliberately do not change it."""
    digest = hashlib.sha256()
    try:
        digest.update(cfg.corpus.read_bytes())
    except OSError as exc:
        raise DataError("cannot read corpus %s: %s" % (cfg.corpus, exc)) from None
    mode = cfg.policy.mode if cfg.policy else "none"
    threshold = cfg.policy.threshold if cfg.policy else 0
    digest.update(
        ("\nfactor=%s:%d\norders=%d:%d" % (mode, threshold, cfg.token_lm_order, cfg.signature_lm_order)).encode()
    )
    return digest.hexdigest()


def resolved_config_lines(cfg: RunConfig):
    yield "corpus=%s" % cfg.corpus
    yield "outdir=%s" % cfg.outdir
    yield "factor.mode=%s" % (cfg.policy.mode if cfg.policy else "none")
    if cfg.policy:
        yield "factor.threshold=%d" % cfg.policy.threshold
    yield "token_lm_order=%d" % cfg.token_lm_order
    yield "signature_lm_order=%d" % cfg.signature_lm_order
    for key, f in _GA_FIELDS.items():
        yield "%s=%r" % (key, getattr(cfg.ga, f.name))


@contextmanager
def _replacing(path: Path):
    """A temporary path beside ``path`` to write; it replaces ``path`` when
    the block completes and is removed when the block raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_lines(path: Path, lines) -> None:
    try:
        with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc)) from None


def artifact_digests(outdir: Path) -> dict[str, str]:
    """The sha256 of each trained artifact in ``outdir``, by file name.

    A digest is written as a decimal integer: every manifest value except
    config_hash is a number, and perfbench/run.py reads them as counts.
    """
    digests = {}
    for name in ARTIFACT_FILES:
        h = hashlib.sha256()
        with open(outdir / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
        digests[name] = str(int(h.hexdigest(), 16))
    return digests


def cmd_train(cfg: RunConfig) -> int:
    try:
        sentences = parse_conll_file(cfg.corpus)
    except OSError as exc:
        raise DataError("cannot read corpus %s: %s" % (cfg.corpus, exc)) from None
    except (MalformedLine, IllegalBIO) as exc:
        raise DataError("%s: %s" % (cfg.corpus, exc)) from None
    if not sentences:
        raise DataError("corpus %s contains no sentences" % cfg.corpus)

    n_sentences = len(sentences)
    inventory = extract_templates(sentences)
    raw_unique = len(inventory.templates)
    if cfg.policy is not None:
        table = token_counts(sentences)
        inventory = factor_inventory(inventory, table, cfg.policy)
        token_seqs = factored_token_stream(sentences, table, cfg.policy)
        del table
    else:
        token_seqs = [[t.surface for t in s.tokens] for s in sentences]
    del sentences  # the token stream and the inventory hold all that is left to use
    token_lm = train(token_seqs, cfg.token_lm_order)
    del token_seqs
    sig_lm = train(inventory.signature_sequences(), cfg.signature_lm_order)

    outdir = cfg.outdir
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError("cannot create output directory %s: %s" % (outdir, exc)) from None
    # The manifest is written last; dropping the old one first means a
    # retrain that dies partway leaves no manifest that generate would trust.
    try:
        (outdir / MANIFEST_FILE).unlink(missing_ok=True)
    except OSError as exc:
        raise DataError("cannot remove old manifest in %s: %s" % (outdir, exc)) from None
    _write_lines(outdir / INVENTORY_FILE, inventory_lines(inventory))
    try:
        for model, arpa_name, tables_name in (
            (token_lm, TOKEN_LM_FILE, TOKEN_TABLES_FILE),
            (sig_lm, SIGNATURE_LM_FILE, SIGNATURE_TABLES_FILE),
        ):
            with _replacing(outdir / arpa_name) as tmp:
                tables = write_arpa_file(model, tmp)
            with _replacing(outdir / tables_name) as tmp:
                write_tables(tables, tmp)
        digests = artifact_digests(outdir)
    except OSError as exc:
        raise DataError("cannot write models: %s" % exc) from None
    _write_lines(
        outdir / MANIFEST_FILE,
        [
            "config_hash=%s" % config_hash(cfg),
            "sentences=%d" % n_sentences,
            "templates_raw=%d" % raw_unique,
            "templates_factored=%d" % len(inventory.templates),
        ]
        + ["%s=%s" % (DIGEST_KEY % name, digest) for name, digest in digests.items()],
    )
    _write_lines(outdir / RESOLVED_CONFIG_FILE, resolved_config_lines(cfg))
    print(
        "trained on %d sentences: %d templates (%d before factoring)"
        % (n_sentences, len(inventory.templates), raw_unique)
    )
    print("wrote %s" % outdir)
    return 0


def _read_manifest(outdir: Path) -> dict[str, str]:
    path = outdir / MANIFEST_FILE
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError("no manifest at %s (run train first): %s" % (path, exc)) from None
    try:
        values = parse_config_text(text, str(path))
    except ConfigError as exc:
        raise DataError(str(exc)) from None
    if "config_hash" not in values:
        raise DataError("%s: manifest has no config_hash" % path)
    return values


def _check_digests(outdir: Path, manifest: dict[str, str]) -> None:
    try:
        digests = artifact_digests(outdir)
    except OSError as exc:
        raise DataError("cannot read artifacts: %s" % exc) from None
    for name, digest in digests.items():
        recorded = manifest.get(DIGEST_KEY % name)
        if recorded is None:
            raise DataError("%s records no sha256 of %s; retrain" % (outdir / MANIFEST_FILE, name))
        if recorded != digest:
            raise DataError(
                "%s does not match the sha256 recorded in %s (changed since train); retrain"
                % (outdir / name, MANIFEST_FILE)
            )


def cmd_generate(cfg: RunConfig) -> int:
    if DEFAULT_BACKEND not in available_backends():
        raise ConfigError(
            "TEMPLEX_KERNEL=%s names no built kernel backend (available: %s)"
            % (DEFAULT_BACKEND, ", ".join(available_backends()))
        )
    outdir = cfg.outdir
    manifest = _read_manifest(outdir)
    expected = config_hash(cfg)
    if manifest["config_hash"] != expected:
        raise ManifestMismatch(
            "artifacts in %s were trained under config hash %s, current config hashes to %s; retrain"
            % (outdir, manifest["config_hash"], expected)
        )
    _check_digests(outdir, manifest)
    try:
        with open(outdir / INVENTORY_FILE, encoding="utf-8") as fh:
            inventory = parse_inventory_lines(fh)
    except OSError as exc:
        raise DataError("cannot read inventory: %s" % exc) from None
    except MalformedLine as exc:
        raise DataError("%s: %s" % (outdir / INVENTORY_FILE, exc)) from None
    if not inventory.templates:
        raise DataError("%s lists no templates" % (outdir / INVENTORY_FILE))
    try:
        # through the module attribute, which perfbench/tracing.py wraps
        token_scorer = kernels.make_scorer(read_tables(outdir / TOKEN_TABLES_FILE))
        sig_scorer = kernels.make_scorer(read_tables(outdir / SIGNATURE_TABLES_FILE))
    except OSError as exc:
        raise DataError("cannot read models: %s" % exc) from None
    except MalformedTables as exc:
        raise DataError("bad model file: %s" % exc) from None

    try:
        result = run(cfg.ga, inventory, token_scorer, sig_scorer)
    except FitnessOverflow as exc:
        raise DataError(
            "%s: %s; check its backoff weights" % (outdir / SIGNATURE_TABLES_FILE, exc)
        ) from None
    _write_lines(outdir / STATS_FILE, stats_csv_lines(result.stats))
    _write_lines(outdir / POPULATION_FILE, population_lines(result.population))
    _write_lines(outdir / RESOLVED_CONFIG_FILE, resolved_config_lines(cfg))
    best = max(c.fitness for c in result.population)
    print(
        "evolved %d generations (population %d, seed %d): best fitness %.6f"
        % (cfg.ga.generations, cfg.ga.population_size, cfg.ga.rng_seed, best)
    )
    print("wrote %s and %s" % (outdir / STATS_FILE, outdir / POPULATION_FILE))
    return 0


_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values) -> str:
    values = list(values)
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        return _SPARK[0] * len(values)
    top = len(_SPARK) - 1
    return "".join(_SPARK[round((v - lo) / (hi - lo) * top)] for v in values)


def cmd_inspect(result_dir: Path, top: int) -> int:
    if top < 1:
        raise ConfigError("--top must be >= 1, got %d" % top)
    pop_path = result_dir / POPULATION_FILE
    stats_path = result_dir / STATS_FILE
    rows = []
    try:
        with open(pop_path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise DataError("%s:%d: expected 3 tab-separated fields" % (pop_path, lineno))
                try:
                    fit = float(parts[2])
                except ValueError:
                    raise DataError("%s:%d: bad fitness %r" % (pop_path, lineno, parts[2])) from None
                rows.append((parts[0], parts[1], fit))
    except OSError as exc:
        raise DataError("cannot read population dump: %s" % exc) from None
    if not rows:
        raise DataError("%s is empty" % pop_path)
    rows.sort(key=lambda r: -r[2])

    print("top %d of %d chromosomes:" % (min(top, len(rows)), len(rows)))
    for i, (surface, signature, fit) in enumerate(rows[:top], start=1):
        print("%3d. %.6f  %s  [%s]" % (i, fit, bare_factors(surface), signature))

    mean_fit, mean_len = [], []
    try:
        with open(stats_path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != STATS_HEADER:
                raise DataError("%s: unrecognized stats header %r" % (stats_path, header))
            for lineno, raw in enumerate(fh, start=2):
                line = raw.strip()
                if not line:
                    continue
                cols = line.split(",")
                try:
                    mean_fit.append(float(cols[1]))
                    mean_len.append(float(cols[3]))
                except (IndexError, ValueError):
                    raise DataError("%s:%d: bad stats row %r" % (stats_path, lineno, line)) from None
    except OSError as exc:
        raise DataError("cannot read stats: %s" % exc) from None
    if not mean_fit:
        raise DataError("%s has no data rows" % stats_path)
    print()
    print("mean fitness  %.4f .. %.4f  %s" % (mean_fit[0], mean_fit[-1], sparkline(mean_fit)))
    print("mean length   %.2f .. %.2f  %s" % (mean_len[0], mean_len[-1], sparkline(mean_len)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="templex",
        description="Evolve gapped sentences from chunk templates under n-gram models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("train", "mine templates and train both models"),
                       ("generate", "run the evolutionary search on trained artifacts")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, type=Path, help="key=value config file")
    p = sub.add_parser("inspect", help="summarize a finished run")
    p.add_argument("result_dir", type=Path)
    p.add_argument("--top", type=int, default=10, help="number of chromosomes to list")
    return parser


def main(argv=None) -> int:
    # The cyclic collector is paused for the command.  Each full pass
    # rescans every live token, template and count dict and frees nothing:
    # the only cyclic garbage a command makes is argparse's parser, a fixed
    # ~120 objects however large the corpus or the run.  Reference counting
    # frees everything else.  The caller's setting is restored on the way
    # out, so in-process callers get their collector back.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _dispatch(argv)
    finally:
        if was_enabled:
            gc.enable()


def _dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses status 2 for usage; contract says 1
        return 0 if not exc.code else 1
    try:
        if args.command == "train":
            return cmd_train(load_run_config(args.config))
        if args.command == "generate":
            return cmd_generate(load_run_config(args.config))
        return cmd_inspect(args.result_dir, args.top)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except DataError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
