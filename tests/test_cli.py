"""End-to-end command-line behavior: configs, artifacts, exit codes."""

import gc
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from templex import cli
from templex.cli import (
    ConfigError,
    DataError,
    ManifestMismatch,
    bare_factors,
    config_hash,
    load_run_config,
    main,
    parse_config_text,
    sparkline,
)
from templex.ga import GAConfig
from templex.kernels import build_tables, read_tables, write_tables
from templex.ngram import read_arpa_file

CHECKOUT = Path(__file__).resolve().parent.parent

DESK_KEYS = {
    "factor.mode": "absolute",
    "factor.threshold": "2",
    "token_lm_order": "3",
    "signature_lm_order": "5",
    "ga.target_length": "5",
    "ga.population_size": "20",
    "ga.tournament_size": "4",
    "ga.nbest": "4",
    "ga.mutation_p": "0.05",
    "ga.generations": "3",
    "seed": "0",
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)


def write_config(tmp_path, data_dir, name="run.cfg", **overrides):
    kv = dict(DESK_KEYS)
    kv["corpus"] = str(data_dir / "desk.conll")
    kv["outdir"] = "out"
    kv.update(overrides)
    path = tmp_path / name
    body = "# evolution run\n\n" + "\n".join(
        "%s=%s" % (k, v) for k, v in kv.items() if v is not None
    )
    path.write_text(body + "\n", encoding="utf-8")
    return path


def manifest_values(outdir):
    text = (outdir / cli.MANIFEST_FILE).read_text(encoding="utf-8")
    return dict(line.split("=", 1) for line in text.splitlines())


def reseal(outdir):
    """Record the artifacts' current digests in the manifest, as train does,
    so that generate goes on to parse an artifact a test has edited."""
    values = manifest_values(outdir)
    for name, digest in cli.artifact_digests(outdir).items():
        values[cli.DIGEST_KEY % name] = digest
    text = "".join("%s=%s\n" % item for item in values.items())
    (outdir / cli.MANIFEST_FILE).write_text(text, encoding="utf-8")


# -------------------------------------------------------------- config parsing


def test_parse_config_ignores_comments_and_blanks():
    got = parse_config_text("# a\n\n k = v \nother=1\n", "t")
    assert got == {"k": "v", "other": "1"}


def test_parse_config_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="t:3: duplicate key 'k'"):
        parse_config_text("k=1\n# mid\nk=2\n", "t")


def test_parse_config_rejects_bare_words():
    with pytest.raises(ConfigError, match="t:1: expected key=value"):
        parse_config_text("standalone\n", "t")


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"nonsense": "1"}, "unknown keys: nonsense"),
        ({"corpus": None}, "missing required key 'corpus'"),
        ({"factor.mode": "none"}, "factor.threshold is only valid"),
        ({"factor.threshold": None}, "requires factor.threshold"),
        ({"factor.mode": "fancy"}, "factor.mode must be none, absolute, or relative"),
        ({"factor.threshold": "two"}, "must be an integer"),
        ({"ga.mutation_p": "lots"}, "must be a number"),
        ({"token_lm_order": "0"}, "model orders must be >= 1"),
        ({"ga.tournament_size": "1"}, "tournament_size must be >= 2"),
        ({"ga.mutation_p": "1.5"}, "mutation_p must be in"),
    ],
)
def test_bad_configs_raise_config_error(tmp_path, data_dir, overrides, fragment):
    path = write_config(tmp_path, data_dir, **overrides)
    with pytest.raises(ConfigError, match=fragment):
        load_run_config(path)


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_run_config(tmp_path / "absent.cfg")


def test_config_without_outdir_is_rejected(tmp_path, data_dir):
    path = write_config(tmp_path, data_dir, outdir=None)
    with pytest.raises(ConfigError, match="no output directory"):
        load_run_config(path)


def test_relative_paths_resolve_against_config_dir(tmp_path, data_dir):
    shutil.copy(data_dir / "desk.conll", tmp_path / "local.conll")
    path = write_config(tmp_path, data_dir, corpus="local.conll", outdir="artifacts")
    cfg = load_run_config(path)
    assert cfg.corpus == tmp_path / "local.conll"
    assert cfg.outdir == tmp_path / "artifacts"


def test_env_outdir_overrides_config(tmp_path, data_dir, monkeypatch):
    forced = tmp_path / "forced"
    monkeypatch.setenv(cli.OUTDIR_ENV, str(forced))
    cfg = load_run_config(write_config(tmp_path, data_dir, outdir="ignored"))
    assert cfg.outdir == forced


def test_defaults_applied(tmp_path, data_dir):
    path = tmp_path / "bare.cfg"
    path.write_text(
        "corpus=%s\noutdir=out\n" % (data_dir / "desk.conll"), encoding="utf-8"
    )
    cfg = load_run_config(path)
    assert cfg.policy is None
    assert (cfg.token_lm_order, cfg.signature_lm_order) == (3, 5)
    assert cfg.ga.population_size == 1000
    assert cfg.ga.generations == 100
    assert cfg.ga.mutation_p == 0.05
    assert cfg.ga.rng_seed == 0
    assert cfg.ga == GAConfig()


# ----------------------------------------------------------------- config hash


def test_hash_ignores_generation_only_settings(tmp_path, data_dir):
    base = config_hash(load_run_config(write_config(tmp_path, data_dir)))
    for overrides in (
        {"seed": "99"},
        {"ga.population_size": "64"},
        {"ga.generations": "1"},
        {"ga.mutation_p": "0.5"},
        {"outdir": "elsewhere"},
    ):
        cfg = load_run_config(write_config(tmp_path, data_dir, name="o.cfg", **overrides))
        assert config_hash(cfg) == base, overrides


def test_hash_tracks_training_settings(tmp_path, data_dir):
    base = config_hash(load_run_config(write_config(tmp_path, data_dir)))
    seen = {base}
    for overrides in (
        {"factor.mode": "relative", "factor.threshold": "10"},
        {"factor.threshold": "5"},
        {"token_lm_order": "2"},
        {"signature_lm_order": "4"},
    ):
        cfg = load_run_config(write_config(tmp_path, data_dir, name="o.cfg", **overrides))
        h = config_hash(cfg)
        assert h not in seen, overrides
        seen.add(h)


def test_hash_tracks_corpus_bytes(tmp_path, data_dir):
    shutil.copy(data_dir / "desk.conll", tmp_path / "c.conll")
    path = write_config(tmp_path, data_dir, corpus="c.conll")
    before = config_hash(load_run_config(path))
    with open(tmp_path / "c.conll", "a", encoding="utf-8") as fh:
        fh.write("more\tNN\tB-NP\n\n")
    assert config_hash(load_run_config(path)) != before


def test_hash_of_missing_corpus_is_data_error(tmp_path, data_dir):
    cfg = load_run_config(write_config(tmp_path, data_dir, corpus="gone.conll"))
    with pytest.raises(DataError):
        config_hash(cfg)


# ----------------------------------------------------------------------- train


def test_train_writes_all_artifacts(tmp_path, data_dir, capsys):
    path = write_config(tmp_path, data_dir)
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    for name in (
        cli.INVENTORY_FILE,
        cli.TOKEN_LM_FILE,
        cli.SIGNATURE_LM_FILE,
        cli.MANIFEST_FILE,
        cli.RESOLVED_CONFIG_FILE,
    ):
        assert (out / name).is_file(), name
    stdout = capsys.readouterr().out
    assert "trained on 55 sentences" in stdout


def test_manifest_counts_identity_policy(tmp_path, data_dir):
    path = write_config(
        tmp_path, data_dir, **{"factor.mode": "none", "factor.threshold": None}
    )
    assert main(["train", "--config", str(path)]) == 0
    values = manifest_values(tmp_path / "out")
    assert values["sentences"] == "55"
    # no factoring: the factored inventory is the raw inventory
    assert values["templates_raw"] == values["templates_factored"]


def test_manifest_counts_factored_policy(tmp_path, data_dir):
    assert main(["train", "--config", str(write_config(tmp_path, data_dir))]) == 0
    values = manifest_values(tmp_path / "out")
    raw, factored = int(values["templates_raw"]), int(values["templates_factored"])
    assert factored <= raw


def test_factoring_policies_order_the_inventory_size(tmp_path, data_dir):
    """Coarser policies merge more templates: none keeps every lexical form,
    higher absolute thresholds and lower rank cutoffs factor more words."""
    sizes = {}
    for tag, mode, threshold in (
        ("none", "none", None),
        ("abs2", "absolute", "2"),
        ("rel50", "relative", "50"),
        ("abs5", "absolute", "5"),
        ("rel10", "relative", "10"),
    ):
        path = write_config(
            tmp_path,
            data_dir,
            name="%s.cfg" % tag,
            outdir="out_%s" % tag,
            **{"factor.mode": mode, "factor.threshold": threshold},
        )
        assert main(["train", "--config", str(path)]) == 0
        sizes[tag] = int(manifest_values(tmp_path / ("out_%s" % tag))["templates_factored"])
    assert sizes["none"] > sizes["abs2"] > sizes["rel50"] > sizes["abs5"] > sizes["rel10"]


def test_train_missing_corpus_exits_2(tmp_path, data_dir, capsys):
    path = write_config(tmp_path, data_dir, corpus="missing.conll")
    assert main(["train", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "word\tNN\n\n",
        "a\tDT\tB-NP\n<unk>\tNN\tI-NP\n\n",
        "a\tDT\tB-</s>\n\n",
    ],
    ids=["two-columns", "reserved-word", "reserved-label"],
)
def test_train_malformed_corpus_exits_2(tmp_path, data_dir, capsys, text):
    bad = tmp_path / "bad.conll"
    bad.write_text(text, encoding="utf-8")
    path = write_config(tmp_path, data_dir, corpus=str(bad))
    assert main(["train", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_rejects_a_word_spelled_like_a_gap(tmp_path, data_dir, capsys):
    # kept, the word __NN__ would be the same string as the gap of every
    # rare NN word, in the token model and in the inventory
    corpus = tmp_path / "gaps.conll"
    corpus.write_text("__NN__ JJ B-NP\n\n__NN__ JJ B-NP\n\ncat NN B-NP\n\n", encoding="utf-8")
    path = write_config(tmp_path, data_dir, corpus=str(corpus))
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "line 1: " in err[0], err
    assert "gap" in err[0], err
    assert not (tmp_path / "out").exists()


def test_train_empty_corpus_exits_2(tmp_path, data_dir):
    empty = tmp_path / "empty.conll"
    empty.write_text("", encoding="utf-8")
    path = write_config(tmp_path, data_dir, corpus=str(empty))
    assert main(["train", "--config", str(path)]) == 2


def test_train_bad_config_exits_1(tmp_path, data_dir, capsys):
    path = write_config(tmp_path, data_dir, **{"factor.mode": "wild"})
    assert main(["train", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_failed_retrain_leaves_no_manifest(tmp_path, data_dir, monkeypatch, capsys):
    path = write_config(tmp_path, data_dir)
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert (out / cli.MANIFEST_FILE).is_file()

    def fail_write(model, target):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_arpa_file", fail_write)
    assert main(["train", "--config", str(path)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert not (out / cli.MANIFEST_FILE).exists()
    # the inventory was rewritten but the models were not: nothing to trust
    assert main(["generate", "--config", str(path)]) == 2
    assert "run train first" in capsys.readouterr().err


def test_resolved_config_is_complete_key_value(tmp_path, data_dir):
    path = write_config(tmp_path, data_dir)
    assert main(["train", "--config", str(path)]) == 0
    text = (tmp_path / "out" / cli.RESOLVED_CONFIG_FILE).read_text(encoding="utf-8")
    resolved = parse_config_text(text, "resolved")
    assert resolved["factor.mode"] == "absolute"
    assert resolved["factor.threshold"] == "2"
    assert resolved["ga.mutation_p"] == "0.05"
    assert resolved["seed"] == "0"
    assert set(resolved) <= cli._KNOWN_KEYS


ALL_KEYS = dict(DESK_KEYS, **{"factor.mode": "relative", "factor.threshold": "7",
                              "ga.target_length": "3", "ga.mutation_p": "0.125", "seed": "42"})


@pytest.mark.parametrize("kv", [ALL_KEYS, {}], ids=["every-key", "defaults"])
def test_resolved_config_loads_back_to_the_same_config(tmp_path, data_dir, kv):
    path = tmp_path / "run.cfg"
    body = ["corpus=%s" % (data_dir / "desk.conll"), "outdir=out"]
    path.write_text("\n".join(body + ["%s=%s" % item for item in kv.items()]) + "\n", encoding="utf-8")
    cfg = load_run_config(path)
    resolved = tmp_path / "again" / "config.resolved"
    resolved.parent.mkdir()
    resolved.write_text("\n".join(cli.resolved_config_lines(cfg)) + "\n", encoding="utf-8")
    assert load_run_config(resolved) == cfg
    if kv:
        assert set(parse_config_text(resolved.read_text(encoding="utf-8"), "r")) == cli._KNOWN_KEYS


# -------------------------------------------------------------------- generate


def trained_config(tmp_path, data_dir, **overrides):
    path = write_config(tmp_path, data_dir, **overrides)
    assert main(["train", "--config", str(path)]) == 0
    return path


def test_generate_produces_stats_and_population(tmp_path, data_dir, capsys):
    path = trained_config(tmp_path, data_dir)
    assert main(["generate", "--config", str(path)]) == 0
    out = tmp_path / "out"
    stats = (out / cli.STATS_FILE).read_text(encoding="utf-8").splitlines()
    assert stats[0] == "generation,mean_fitness,max_fitness,mean_len,std_len"
    assert len(stats) == 1 + 4  # header + generations 0..3
    pop = (out / cli.POPULATION_FILE).read_text(encoding="utf-8").splitlines()
    assert len(pop) == 20
    for line in pop:
        surface, signature, fit = line.split("\t")
        assert surface and signature
        assert 0.0 < float(fit) <= 1.0
    assert "best fitness" in capsys.readouterr().out


def test_generate_without_train_exits_2(tmp_path, data_dir, capsys):
    path = write_config(tmp_path, data_dir)
    assert main(["generate", "--config", str(path)]) == 2
    assert "run train first" in capsys.readouterr().err


def test_generate_under_changed_training_config_exits_2(tmp_path, data_dir, capsys):
    trained_config(tmp_path, data_dir)
    changed = write_config(tmp_path, data_dir, name="changed.cfg", **{"factor.threshold": "3"})
    assert main(["generate", "--config", str(changed)]) == 2
    assert "retrain" in capsys.readouterr().err


def test_generate_tolerates_generation_only_changes(tmp_path, data_dir):
    trained_config(tmp_path, data_dir)
    changed = write_config(tmp_path, data_dir, name="seed9.cfg", **{"seed": "9"})
    assert main(["generate", "--config", str(changed)]) == 0


def test_generate_is_byte_deterministic(tmp_path, data_dir):
    path = trained_config(tmp_path, data_dir)
    out = tmp_path / "out"
    assert main(["generate", "--config", str(path)]) == 0
    first = {
        name: (out / name).read_bytes()
        for name in (cli.STATS_FILE, cli.POPULATION_FILE)
    }
    assert main(["generate", "--config", str(path)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_generate_seed_changes_output(tmp_path, data_dir):
    path = trained_config(tmp_path, data_dir)
    out = tmp_path / "out"
    assert main(["generate", "--config", str(path)]) == 0
    first = (out / cli.POPULATION_FILE).read_bytes()
    reseeded = write_config(tmp_path, data_dir, name="r.cfg", **{"seed": "123"})
    assert main(["generate", "--config", str(reseeded)]) == 0
    assert (out / cli.POPULATION_FILE).read_bytes() != first


def test_generate_zero_generations_single_row(tmp_path, data_dir):
    path = trained_config(tmp_path, data_dir, **{"ga.generations": "0"})
    assert main(["generate", "--config", str(path)]) == 0
    stats = (tmp_path / "out" / cli.STATS_FILE).read_text(encoding="utf-8").splitlines()
    assert len(stats) == 2  # header plus the generation-0 row
    assert stats[1].startswith("0,")


def recompile(arpa):
    """Rewrite the tables file beside an ARPA file a test has edited, as
    train compiles it, so that generate loads the edit."""
    write_tables(build_tables(read_arpa_file(arpa)), arpa.with_suffix(".tables"))


def test_generate_corrupt_model_exits_2(tmp_path, data_dir, capsys):
    path = trained_config(tmp_path, data_dir)
    (tmp_path / "out" / cli.TOKEN_TABLES_FILE).write_bytes(b"not a tables file\n" * 8)
    reseal(tmp_path / "out")
    capsys.readouterr()
    assert main(["generate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad model file: "), err
    assert cli.TOKEN_TABLES_FILE in err[0], err


@pytest.mark.parametrize("bad", ["1\t\tthe", "2\tN P\tcat", "1\t<unk>\tthe", "2\tNP\tthe </s>"])
def test_generate_bad_inventory_tag_exits_2(tmp_path, data_dir, capsys, bad):
    path = trained_config(tmp_path, data_dir)
    with open(tmp_path / "out" / cli.INVENTORY_FILE, "a", encoding="utf-8") as fh:
        fh.write(bad + "\n")
    reseal(tmp_path / "out")
    capsys.readouterr()
    assert main(["generate", "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "tag" in lines[0], lines


def test_generate_out_of_range_logprob_exits_2(tmp_path, data_dir, capsys):
    path = trained_config(tmp_path, data_dir)
    target = tmp_path / "out" / cli.TOKEN_TABLES_FILE
    tables = read_tables(target)
    tables.probs[next(iter(tables.probs))] = 500.0
    write_tables(tables, target)
    reseal(tmp_path / "out")
    capsys.readouterr()
    assert main(["generate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: bad model file: %s: a log probability is NaN or above 0" % target]


def set_unigram_backoffs(arpa, value):
    """Give every unigram of an ARPA file that has a backoff weight ``value``."""
    lines = arpa.read_text(encoding="utf-8").splitlines()
    for i in range(lines.index("\\1-grams:") + 1, lines.index("\\2-grams:")):
        fields = lines[i].split("\t")
        if len(fields) == 3:
            lines[i] = "\t".join(fields[:2] + [value])
    arpa.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_generate_accepts_junctions_above_probability_one(tmp_path, data_dir, capsys):
    # A positive backoff is legal ARPA; a junction scoring log10 > 0 is a
    # certain acceptance, not an overflow of 10 ** score.
    path = trained_config(tmp_path, data_dir)
    set_unigram_backoffs(tmp_path / "out" / cli.TOKEN_LM_FILE, "500.0")
    recompile(tmp_path / "out" / cli.TOKEN_LM_FILE)
    reseal(tmp_path / "out")
    assert main(["generate", "--config", str(path)]) == 0
    assert "best fitness" in capsys.readouterr().out


def test_generate_fitness_overflow_exits_2(tmp_path, data_dir, capsys):
    path = trained_config(tmp_path, data_dir)
    set_unigram_backoffs(tmp_path / "out" / cli.SIGNATURE_LM_FILE, "500.0")
    recompile(tmp_path / "out" / cli.SIGNATURE_LM_FILE)
    reseal(tmp_path / "out")
    capsys.readouterr()
    assert main(["generate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert cli.SIGNATURE_TABLES_FILE in err[0] and "beyond the float range" in err[0], err
    assert not (tmp_path / "out" / cli.STATS_FILE).exists()


def truncate_at_a_line(path):
    """Drop the second half of a file's lines, as an interrupted copy might."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[: len(lines) // 2]))


@pytest.mark.parametrize("name", cli.ARTIFACT_FILES)
def test_generate_truncated_artifact_exits_2(tmp_path, data_dir, capsys, name):
    path = trained_config(tmp_path, data_dir)
    out = tmp_path / "out"
    truncate_at_a_line(out / name)
    capsys.readouterr()
    assert main(["generate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert name in err[0] and "sha256" in err[0], err
    assert not (out / cli.STATS_FILE).exists()


def test_generate_without_recorded_digests_exits_2(tmp_path, data_dir, capsys):
    path = trained_config(tmp_path, data_dir)
    manifest = tmp_path / "out" / cli.MANIFEST_FILE
    kept = [x for x in manifest.read_text(encoding="utf-8").splitlines() if not x.startswith("sha256.")]
    manifest.write_text("\n".join(kept) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["generate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "records no sha256" in err[0] and "retrain" in err[0], err


def test_train_compiles_the_tables_of_its_arpa_files(tmp_path, data_dir):
    trained_config(tmp_path, data_dir)
    out = tmp_path / "out"
    for arpa, tables in (
        (cli.TOKEN_LM_FILE, cli.TOKEN_TABLES_FILE),
        (cli.SIGNATURE_LM_FILE, cli.SIGNATURE_TABLES_FILE),
    ):
        assert read_tables(out / tables) == build_tables(read_arpa_file(out / arpa)), tables


def test_generate_parses_no_arpa_file(tmp_path, data_dir, monkeypatch):
    path = trained_config(tmp_path, data_dir)

    def refuse(stream):
        raise AssertionError("generate parsed an ARPA file")

    monkeypatch.setattr("templex.ngram.arpa.read_arpa", refuse)
    assert main(["generate", "--config", str(path)]) == 0


def test_train_records_each_artifacts_sha256(tmp_path, data_dir):
    trained_config(tmp_path, data_dir)
    out = tmp_path / "out"
    values = manifest_values(out)
    for name in cli.ARTIFACT_FILES:
        hexdigest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert int(values[cli.DIGEST_KEY % name]) == int(hexdigest, 16)
    # every manifest value but the config hash is a number
    assert all(v.isdigit() for k, v in values.items() if k != "config_hash")
    assert not list(out.glob("*.tmp"))


def test_failed_write_keeps_the_old_file_whole(tmp_path, data_dir, monkeypatch):
    path = trained_config(tmp_path, data_dir)
    out = tmp_path / "out"
    before = (out / cli.TOKEN_LM_FILE).read_bytes()

    def fail_midway(model, target):
        target.write_text("\\data\\\n", encoding="utf-8")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_arpa_file", fail_midway)
    assert main(["train", "--config", str(path)]) == 2
    assert (out / cli.TOKEN_LM_FILE).read_bytes() == before
    assert not list(out.glob("*.tmp"))


def test_generate_empty_inventory_exits_2(tmp_path, data_dir):
    path = trained_config(tmp_path, data_dir)
    (tmp_path / "out" / cli.INVENTORY_FILE).write_text("", encoding="utf-8")
    reseal(tmp_path / "out")
    assert main(["generate", "--config", str(path)]) == 2


def test_generate_unbuilt_kernel_backend_exits_1(tmp_path, data_dir):
    # The backend is chosen when templex.kernels is imported, so the
    # environment variable needs a fresh interpreter.
    path = trained_config(tmp_path, data_dir)
    env = dict(os.environ, TEMPLEX_KERNEL="bogus")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(CHECKOUT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "templex.cli", "generate", "--config", str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: TEMPLEX_KERNEL=bogus"), proc.stderr
    assert "python" in lines[0]  # names the backends that are built
    assert not (tmp_path / "out" / cli.STATS_FILE).exists()


# --------------------------------------------------------------------- inspect


def test_inspect_lists_top_chromosomes(tmp_path, data_dir, capsys):
    path = trained_config(tmp_path, data_dir)
    assert main(["generate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "out"), "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "top 5 of 20 chromosomes:" in out
    assert "mean fitness" in out and "mean length" in out
    # factor markers are shown bare
    assert "__" not in out.split("mean fitness")[0]


def test_inspect_renders_both_trajectories(tmp_path, data_dir, capsys):
    path = trained_config(tmp_path, data_dir)
    assert main(["generate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    fit_line = next(ln for ln in lines if ln.startswith("mean fitness"))
    len_line = next(ln for ln in lines if ln.startswith("mean length"))
    for ln in (fit_line, len_line):
        spark = ln.split()[-1]
        assert len(spark) == 4  # one glyph per generation 0..3
        assert all(ch in cli._SPARK for ch in spark)


def test_inspect_missing_dir_exits_2(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nowhere")]) == 2
    assert "error:" in capsys.readouterr().err


def test_inspect_corrupt_population_exits_2(tmp_path, data_dir, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / cli.POPULATION_FILE).write_text("only two\tfields\n", encoding="utf-8")
    (out / cli.STATS_FILE).write_text("generation,mean_fitness,max_fitness,mean_len,std_len\n0,1,1,1,0\n", encoding="utf-8")
    assert main(["inspect", str(out)]) == 2
    assert "expected 3 tab-separated fields" in capsys.readouterr().err


def test_inspect_bad_fitness_field_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / cli.POPULATION_FILE).write_text("a\tNP\tnot-a-number\n", encoding="utf-8")
    assert main(["inspect", str(out)]) == 2
    assert "bad fitness" in capsys.readouterr().err


def test_inspect_unrecognized_stats_header_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / cli.POPULATION_FILE).write_text("a\tNP\t0.5\n", encoding="utf-8")
    (out / cli.STATS_FILE).write_text("wrong,header\n", encoding="utf-8")
    assert main(["inspect", str(out)]) == 2
    assert "unrecognized stats header" in capsys.readouterr().err


def test_inspect_top_clamps_to_population(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / cli.POPULATION_FILE).write_text("a\tNP\t0.5\nb\tVP\t0.9\n", encoding="utf-8")
    (out / cli.STATS_FILE).write_text(
        "generation,mean_fitness,max_fitness,mean_len,std_len\n0,0.7,0.9,1.0,0.0\n",
        encoding="utf-8",
    )
    assert main(["inspect", str(out), "--top", "50"]) == 0
    stdout = capsys.readouterr().out
    assert "top 2 of 2 chromosomes:" in stdout
    # fittest first
    assert stdout.index("b  [VP]") < stdout.index("a  [NP]")


def test_inspect_top_below_1_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / cli.POPULATION_FILE).write_text("a\tNP\t0.5\nb\tVP\t0.9\n", encoding="utf-8")
    (out / cli.STATS_FILE).write_text(
        "generation,mean_fitness,max_fitness,mean_len,std_len\n0,0.7,0.9,1.0,0.0\n",
        encoding="utf-8",
    )
    for top in ("0", "-1"):
        assert main(["inspect", str(out), "--top", top]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --top must be >= 1, got %s" % top]


# ------------------------------------------------------------------ exit codes


def test_usage_error_exits_1(capsys):
    assert main([]) == 1
    assert main(["explode"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "train" in capsys.readouterr().out


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["explode"], 1), (["inspect", "no-such-dir"], 2)],
    ids=["exit-0", "exit-1", "exit-2"],
)
def test_main_restores_the_callers_gc_state(tmp_path, monkeypatch, capsys, enabled, argv, code):
    # main pauses the cyclic collector for the command, and in-process
    # callers get their own setting back, whatever the exit code
    seen = []
    inspect = cli.cmd_inspect
    monkeypatch.setattr(cli, "cmd_inspect", lambda *a: seen.append(gc.isenabled()) or inspect(*a))
    monkeypatch.chdir(tmp_path)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen == ([False] if argv[0] == "inspect" else [])


def test_console_entry_point_installed(tmp_path):
    # Install this checkout into a prefix under tmp_path and run the launcher
    # that setuptools writes from [project.scripts]. `setup.py install` needs
    # neither wheel nor a network. It runs on a copy, so the build (and
    # cythonize, where Cython is present) writes nothing into the checkout.
    tree = tmp_path / "tree"
    tree.mkdir()
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(CHECKOUT / name, tree / name)
    shutil.copytree(
        CHECKOUT / "src",
        tree / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    prefix = tmp_path / "prefix"
    record = tmp_path / "record.txt"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "install", "--prefix", str(prefix),
         "--single-version-externally-managed", "--record", str(record)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    assert build.returncode == 0, "staged install failed:\n%s\n%s" % (
        build.stdout, build.stderr)

    # Paths come from the install record, not from a guessed install scheme.
    installed = [Path(line) for line in record.read_text().splitlines()]
    scripts = [p for p in installed if p.name == "templex"]
    inits = [p for p in installed if p.parts[-2:] == ("templex", "__init__.py")]
    assert len(scripts) == 1 and len(inits) == 1, record.read_text()
    script, purelib = scripts[0], inits[0].parent.parent
    assert prefix in script.parents and prefix in purelib.parents

    # Only the staged install can pass: the launcher runs by its absolute
    # path, and the staged purelib replaces src/ on PYTHONPATH.
    env["PYTHONPATH"] = str(purelib)
    proc = subprocess.run(
        [str(script), "--help"], cwd=tmp_path, env=env,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "inspect" in proc.stdout


# ------------------------------------------------------------------ formatting


def test_bare_factors():
    assert bare_factors("__NN__ the __VBZ__ cat") == "NN the VBZ cat"
    assert bare_factors("a__b __x") == "a__b __x"
    assert bare_factors("__NNP__") == "NNP"


def test_sparkline_shapes():
    assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
    ramp = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert ramp == "▁▂▃▄▅▆▇█"
    assert sparkline([5, 0, 10]) == "▅▁█"
