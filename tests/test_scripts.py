"""The scripts in scripts/ run: each one, in a subprocess on the package
source, exits 0 and prints a line that pins its result."""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize(
    "name,limit,line",
    [
        ("find_cycles.py", "12", "t=10: 0 0 0  7/3 5/3 4/3  -2/3 2/3 4/3  -11/3 2/3 1/3  -4/3 7/3 5/3"),
        ("scan_small.py", "12", "t=10: d=14"),
    ],
)
def test_sweep_script_prints_its_first_result(name, limit, line):
    assert line in _run_script(name, limit)


def test_verify_corpus_reports_every_corpus_file_ok():
    lines = [line for line in _run_script("verify_corpus.py") if line.startswith("== ")]
    reported = [re.fullmatch(r"== (\S+): exit \d+ ok", line) for line in lines]
    assert all(reported), lines
    assert sorted(m.group(1) for m in reported) == sorted(p.name for p in (ROOT / "data").iterdir())


def test_rebuild_reference_data_writes_the_corpus_byte_for_byte(monkeypatch, tmp_path):
    # the script puts src/ and scripts/ on sys.path when it is loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "rebuild_reference_data", ROOT / "scripts" / "rebuild_reference_data.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA", tmp_path)
    verified = []
    dispatch = script.verify_corpus.dispatch

    def recording(argv):
        verified.append(Path(argv[-1]))
        return dispatch(argv)

    monkeypatch.setattr(script.verify_corpus, "dispatch", recording)
    script.main()
    # the closing re-check reads the files just written
    assert len(verified) == len(script.verify_corpus.EXPECTED)
    assert all(p.parent == tmp_path for p in verified), verified
    data = ROOT / "data"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in data.iterdir())
    for p in tmp_path.iterdir():
        assert p.read_bytes() == (data / p.name).read_bytes(), p.name
