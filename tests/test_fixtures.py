"""The fixture generator still rewrites the committed corpus byte for byte."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "build_fixtures.py"


def test_build_fixtures_reproduces_desk_corpus(tmp_path, data_dir, monkeypatch):
    spec = importlib.util.spec_from_file_location("build_fixtures", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "DATA", tmp_path)
    module.main()
    assert (tmp_path / "desk.conll").read_bytes() == (data_dir / "desk.conll").read_bytes()
