#!/usr/bin/env python3
"""Check that templex's train and generate load no OpenSSL.

    python3 tools/no_openssl.py

Runs ``templex.cli.main`` train and then generate on tests/data/desk.conll,
in this process and in a temporary directory, then checks that neither
``hashlib`` nor ``_hashlib`` was imported: ``import hashlib`` loads OpenSSL's
libcrypto, about 3.6 MiB of resident memory that no templex command needs.
Imports templex from this checkout's src/.  Prints one line; exits 1 when
either module was loaded or a command failed.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """\
corpus=%s
outdir=out
factor.mode=absolute
factor.threshold=2
ga.target_length=5
ga.population_size=20
ga.tournament_size=4
ga.nbest=4
ga.generations=3
seed=0
"""


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from templex import cli

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text(CONFIG % (ROOT / "tests" / "data" / "desk.conll"), encoding="utf-8")
        output = io.StringIO()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            codes = [cli.main([command, "--config", str(config)]) for command in ("train", "generate")]
    if codes != [0, 0]:
        print("FAIL: train and generate exited %s\n%s" % (codes, output.getvalue()), end="")
        return 1
    loaded = sorted({"hashlib", "_hashlib"} & sys.modules.keys())
    if loaded:
        print("FAIL: train and generate imported %s" % ", ".join(loaded))
        return 1
    print("ok: train and generate imported neither hashlib nor _hashlib")
    return 0


if __name__ == "__main__":
    sys.exit(main())
