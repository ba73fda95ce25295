"""Every `$ scavenger …` example in README.md prints what the README shows.

Examples run through `cli.dispatch` in a scratch directory.  A `$ cat <file>`
line in the same code block writes the lines under it to that file first;
paths that exist in the repository (e.g. `data/…`) resolve against its root,
and `--out` targets land in the scratch directory.  Where the README elides
output with a `...` line, the lines before it must open the output and the
lines after it must close it.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from scavenger import cli

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```\n(.*?)^```$", re.S | re.M)
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _examples() -> list[tuple[dict[str, list[str]], list[str], list[str]]]:
    """(files written so far in the block, argv, expected stdout lines)."""
    examples = []
    for block in BLOCK.findall(README):
        files: dict[str, list[str]] = {}
        command = None
        for line in block.splitlines() + ["$ end"]:
            if not line.startswith("$ "):
                if command is not None:
                    command[1].append(line)
                continue
            if command is not None:
                words, body = command
                if words[0] == "cat":
                    files[words[1]] = body
                elif words[0] == "scavenger":
                    examples.append((dict(files), words[1:], body))
            command = (line[2:].split(), [])
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    commands = {argv[0] for _, argv, _ in EXAMPLES}
    assert {"verify", "hunt-greedy", "solve-legendre", "scan-d", "find-cycle", "param-circle"} <= commands


@pytest.mark.parametrize(
    "files,argv,expected", EXAMPLES, ids=[" ".join(argv) for _, argv, _ in EXAMPLES]
)
def test_readme_example(capsys, monkeypatch, tmp_path, files, argv, expected):
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        (tmp_path / name).write_text("".join(line + "\n" for line in body), encoding="utf-8")
    args = []
    for prev, arg in zip([None] + argv, argv):
        if prev == "--out":
            arg = str(tmp_path / Path(arg).name)
        elif arg not in files and (ROOT / arg).exists():
            arg = str(ROOT / arg)
        args.append(arg)
    cli.dispatch(args)
    captured = capsys.readouterr()
    assert captured.err == ""
    got = captured.out.splitlines()
    if "..." in expected:
        cut = expected.index("...")
        head, tail = expected[:cut], expected[cut + 1 :]
        assert got[: len(head)] == head
        assert got[len(got) - len(tail) :] == tail
    else:
        assert got == expected


def _synopsis() -> dict[str, set[str]]:
    """Subcommand -> the options its line of the README's command synopsis lists."""
    (block,) = [b for b in BLOCK.findall(README) if b.startswith("scavenger verify <file>")]
    return {
        line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line)) for line in block.splitlines()
    }


def _parser_options() -> dict[str, set[str]]:
    (sub,) = [a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }


def test_synopsis_names_every_subcommand():
    assert list(_synopsis()) == list(_parser_options())


@pytest.mark.parametrize("command", sorted(_parser_options()))
def test_synopsis_lists_exactly_the_parser_options(command):
    assert _synopsis().get(command) == _parser_options()[command]
