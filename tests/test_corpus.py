"""Every reference file in data/ verifies to the verdict that
scripts/verify_corpus.py expects, through the command-line entry point, and
prints exactly the report pinned in tests/golden/<name>.out."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from scavenger import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
VERDICTS = {0: "PASS", 1: "FAIL", 2: "PASS-WITH-WARNINGS"}


def _expected() -> dict[str, int]:
    spec = importlib.util.spec_from_file_location("verify_corpus", ROOT / "scripts" / "verify_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXPECTED


EXPECTED = _expected()


def test_expectations_cover_the_whole_corpus():
    assert set(EXPECTED) == {p.name for p in (ROOT / "data").iterdir()}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_corpus_verdict(capsys, name):
    code = cli.dispatch(["verify", str(ROOT / "data" / name)])
    captured = capsys.readouterr()
    assert code == EXPECTED[name]
    assert captured.out.endswith(f"VERDICT {VERDICTS[code]}\n")
    assert captured.out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert captured.err == ""
